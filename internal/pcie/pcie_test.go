package pcie

import (
	"fmt"
	"strings"
	"testing"

	"harmonia/internal/sim"
)

func TestNewLinkValidation(t *testing.T) {
	if _, err := NewLink("l", 6, 16); err == nil {
		t.Error("gen6 should fail")
	}
	if _, err := NewLink("l", 4, 4); err == nil {
		t.Error("x4 should fail")
	}
	l, err := NewLink("l", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if l.gbps != 15.75*16 {
		t.Errorf("Gbps = %v", l.gbps)
	}
}

func TestLinkGenerationBandwidthOrdering(t *testing.T) {
	g3, _ := NewLink("g3", 3, 16)
	g4, _ := NewLink("g4", 4, 16)
	g5, _ := NewLink("g5", 5, 16)
	if !(g3.gbps < g4.gbps && g4.gbps < g5.gbps) {
		t.Error("bandwidth should increase with generation")
	}
}

func TestTransferIncludesLatency(t *testing.T) {
	l, _ := NewLink("l", 4, 16)
	done := l.Transfer(0, 64)
	if done <= l.Latency() {
		t.Errorf("done = %v, should exceed completion latency %v", done, l.Latency())
	}
}

func TestTransferSerializes(t *testing.T) {
	l, _ := NewLink("l", 3, 8)
	d1 := l.Transfer(0, 4096)
	d2 := l.Transfer(0, 4096)
	if d2 <= d1 {
		t.Error("concurrent transfers did not serialize on the link")
	}
}

func TestLargeTransfersApproachLineRate(t *testing.T) {
	l, _ := NewLink("l", 4, 16)
	const n, size = 1000, 16384
	var last sim.Time
	for i := 0; i < n; i++ {
		last = l.Transfer(0, size)
	}
	gbps := float64(n*size*8) / (last - l.Latency()).Nanoseconds()
	if gbps < l.gbps*0.85 {
		t.Errorf("sustained %0.1f Gbps, want close to %0.1f", gbps, l.gbps)
	}
}

// goodput streams back-to-back transfers of size bytes over a fresh
// Gen4 x16 link and reports the payload rate.
func goodput(size int) float64 {
	l, _ := NewLink("l", 4, 16)
	const n = 1000
	var last sim.Time
	for i := 0; i < n; i++ {
		last = l.Transfer(0, size)
	}
	return float64(n*size*8) / (last - l.Latency()).Nanoseconds()
}

func TestEffectiveGbpsSmallReadsPenalized(t *testing.T) {
	small := goodput(64)
	large := goodput(16384)
	if small >= large {
		t.Error("small payloads should see lower goodput")
	}
	if ratio := small / large; ratio > 0.8 {
		t.Errorf("64B/16K goodput ratio = %v, want well below 0.8", ratio)
	}
}

func newTestEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	l, err := NewLink("l", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, DefaultEngineConfig()); err == nil {
		t.Error("nil link should fail")
	}
	l, _ := NewLink("l", 4, 16)
	if _, err := NewEngine(l, EngineConfig{Queues: 0}); err == nil {
		t.Error("zero queues should fail")
	}
}

func TestEnginePostAndDrain(t *testing.T) {
	e := newTestEngine(t, DefaultEngineConfig())
	for q := 0; q < 8; q++ {
		for i := 0; i < 4; i++ {
			if err := e.Post(0, q, DeviceToHost, 1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(e.activeRing) != 8 {
		t.Errorf("%d active queues, want 8", len(e.activeRing))
	}
	end := e.Drain(0)
	if end <= 0 {
		t.Error("drain took no time")
	}
	var completed int64
	for q := 0; q < 8; q++ {
		st, _ := e.QueueStats(q)
		completed += st.Completed
	}
	if completed != 32 {
		t.Errorf("completed = %d, want 32", completed)
	}
	if len(e.activeRing) != 0 {
		t.Errorf("%d active queues after drain", len(e.activeRing))
	}
	st, err := e.QueueStats(0)
	if err != nil || st.Completed != 4 || st.Bytes != 4096 {
		t.Errorf("QueueStats(0) = %+v, %v", st, err)
	}
}

// TestEngineSteadyCycleAllocsNothing verifies that a queue drained to
// empty reuses its backing array: a steady post → step cycle on the
// control queue and on a data queue allocates nothing.
func TestEngineSteadyCycleAllocsNothing(t *testing.T) {
	e := newTestEngine(t, DefaultEngineConfig())
	var now sim.Time
	cycle := func() {
		if err := e.PostControl(now, 64); err != nil {
			t.Fatal(err)
		}
		if err := e.Post(now, 3, HostToDevice, 256); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			done, ok := e.Step(now)
			if !ok {
				t.Fatal("posted transfer not dispatched")
			}
			now = done
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("post → step cycle allocates %.1f objects, want 0", got)
	}
}

func TestEnginePostValidation(t *testing.T) {
	e := newTestEngine(t, DefaultEngineConfig())
	if err := e.Post(0, -1, DeviceToHost, 64); err == nil {
		t.Error("negative queue should fail")
	}
	if err := e.Post(0, 1<<20, DeviceToHost, 64); err == nil {
		t.Error("out-of-range queue should fail")
	}
	if err := e.Post(0, 0, DeviceToHost, 0); err == nil {
		t.Error("zero-size transfer should fail")
	}
	if _, err := e.QueueStats(-1); err == nil {
		t.Error("QueueStats(-1) should fail")
	}
}

// TestEngineQueuesMaterialiseOnFirstPost checks that queue state is
// created lazily without moving any bound or cost: untouched queues
// read as zero, range errors still name cfg.Queues, and FullScan still
// charges a scan of every configured slot.
func TestEngineQueuesMaterialiseOnFirstPost(t *testing.T) {
	cfg := DefaultEngineConfig()
	e := newTestEngine(t, cfg)
	if len(e.queues) != 0 || cap(e.queues) != 0 {
		t.Fatalf("fresh engine holds %d queues (cap %d), want none", len(e.queues), cap(e.queues))
	}
	for id := 0; id < cfg.Queues; id++ {
		if st, err := e.QueueStats(id); err != nil || st != (QueueStats{}) {
			t.Fatalf("QueueStats(%d) = %+v, %v; want zero, nil", id, st, err)
		}
	}
	if len(e.queues) != 0 {
		t.Fatalf("QueueStats materialised %d queues", len(e.queues))
	}
	bound := fmt.Sprintf("[0,%d)", cfg.Queues)
	for _, id := range []int{-1, cfg.Queues} {
		if err := e.Post(0, id, DeviceToHost, 64); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("Post(queue %d) error %v, want one naming %s", id, err, bound)
		}
		if _, err := e.QueueStats(id); err == nil || !strings.Contains(err.Error(), bound) {
			t.Errorf("QueueStats(%d) error %v, want one naming %s", id, err, bound)
		}
	}

	cfg.Mode = FullScan
	scan := newTestEngine(t, cfg)
	last := cfg.Queues - 1
	if err := scan.Post(0, last, DeviceToHost, 64); err != nil {
		t.Fatal(err)
	}
	if _, ok := scan.Step(0); !ok {
		t.Fatal("posted transfer not dispatched")
	}
	if want := sim.Time(cfg.Queues) * cfg.SchedCycle; scan.SchedulingTime() != want {
		t.Errorf("FullScan to queue %d charged %v, want %v (%d slots)", last, scan.SchedulingTime(), want, cfg.Queues)
	}
	if st, _ := scan.QueueStats(last); st.Completed != 1 {
		t.Errorf("QueueStats(%d) = %+v, want one completion", last, st)
	}
	// Only queue 0 exists here, yet an idle decision still scans every
	// configured slot.
	idle := newTestEngine(t, cfg)
	if err := idle.Post(0, 0, DeviceToHost, 64); err != nil {
		t.Fatal(err)
	}
	idle.Step(0)
	if _, ok := idle.Step(0); ok {
		t.Fatal("idle engine dispatched")
	}
	if want := sim.Time(1+cfg.Queues) * cfg.SchedCycle; idle.SchedulingTime() != want {
		t.Errorf("FullScan hit on queue 0 then idle charged %v, want %v", idle.SchedulingTime(), want)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	e := newTestEngine(t, DefaultEngineConfig())
	// Two queues with work: completions must alternate.
	for i := 0; i < 4; i++ {
		e.Post(0, 1, DeviceToHost, 512)
		e.Post(0, 2, DeviceToHost, 512)
	}
	var order []int64
	for {
		_, ok := e.Step(0)
		if !ok {
			break
		}
		s1, _ := e.QueueStats(1)
		s2, _ := e.QueueStats(2)
		order = append(order, s1.Completed-s2.Completed)
	}
	for i, d := range order {
		if d < -1 || d > 1 {
			t.Fatalf("step %d: queue imbalance %d, want round-robin", i, d)
		}
	}
}

func TestActiveListSchedulingCheaperThanFullScan(t *testing.T) {
	// Ablation: with 1024 queues and one active, active-list scheduling
	// must be far cheaper than scanning all slots.
	mkCfg := func(mode SchedulerMode) EngineConfig {
		cfg := DefaultEngineConfig()
		cfg.Mode = mode
		return cfg
	}
	active := newTestEngine(t, mkCfg(ActiveList))
	scan := newTestEngine(t, mkCfg(FullScan))
	for i := 0; i < 100; i++ {
		active.Post(0, 777, DeviceToHost, 64)
		scan.Post(0, 777, DeviceToHost, 64)
	}
	active.Drain(0)
	scan.Drain(0)
	if active.SchedulingTime()*10 > scan.SchedulingTime() {
		t.Errorf("active-list sched %v vs full-scan %v: want >=10x gap",
			active.SchedulingTime(), scan.SchedulingTime())
	}
}

func TestControlQueueIsolation(t *testing.T) {
	// With the dedicated control queue, a command dispatches ahead of a
	// deep data backlog.
	cfg := DefaultEngineConfig()
	e := newTestEngine(t, cfg)
	for i := 0; i < 1000; i++ {
		e.Post(0, 3, DeviceToHost, 4096)
	}
	e.PostControl(0, 64)
	done, ok := e.Step(0) // first dispatch must be the control packet
	if !ok {
		t.Fatal("no work dispatched")
	}
	if e.ctrl.stats.Completed != 1 {
		t.Error("control transfer did not dispatch first")
	}
	if done > 2*sim.Microsecond {
		t.Errorf("control completion %v too slow", done)
	}

	// Without isolation, the command lands behind the backlog.
	cfg.ControlQueue = false
	e2 := newTestEngine(t, cfg)
	for i := 0; i < 1000; i++ {
		e2.Post(0, 0, DeviceToHost, 4096)
	}
	e2.PostControl(0, 64)
	var last sim.Time
	for {
		d, ok := e2.Step(0)
		if !ok {
			break
		}
		last = d
	}
	if last < 10*sim.Microsecond {
		t.Errorf("non-isolated control path finished suspiciously fast: %v", last)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "h2c" || DeviceToHost.String() != "c2h" {
		t.Error("Direction.String mismatch")
	}
}
