package rbb

import (
	"testing"

	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

func newHostRBB(t *testing.T, gen, lanes int) *HostRBB {
	t.Helper()
	h, err := NewHost(platform.Xilinx, gen, lanes, ip.SGDMA, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHostSendReceive(t *testing.T) {
	h := newHostRBB(t, 4, 16)
	done, err := h.Send(0, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Error("send took no time")
	}
	done2, err := h.Receive(done, 5, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if done2 <= done {
		t.Error("receive took no time")
	}
	qs, err := h.QueueStats(5)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Completed != 2 || qs.Bytes != 8192 {
		t.Errorf("queue stats = %+v", qs)
	}
	if h.Stats().Units != 2 {
		t.Errorf("traffic = %+v", h.Stats())
	}
}

func TestHostQueueIsolation(t *testing.T) {
	h := newHostRBB(t, 4, 16)
	if err := h.AssignQueues(0, 8, 1); err != nil {
		t.Fatal(err)
	}
	// Same tenant can re-assign; another tenant cannot steal, not even
	// by a range straddling the owned one.
	if err := h.AssignQueues(0, 8, 1); err != nil {
		t.Errorf("re-assign same tenant failed: %v", err)
	}
	if err := h.AssignQueues(0, 8, 2); err == nil {
		t.Error("queues stolen by another tenant")
	}
	if err := h.AssignQueues(4, 12, 2); err == nil {
		t.Error("range straddling another tenant's accepted")
	}
	if err := h.AssignQueues(-1, 1, 1); err == nil {
		t.Error("negative queue accepted")
	}
	if err := h.AssignQueues(1020, 1025, 1); err == nil {
		t.Error("out-of-range queue accepted")
	}
	if err := h.AssignQueues(16, 16, 1); err == nil {
		t.Error("empty range accepted")
	}
	if err := h.AssignQueues(8, 16, 2); err != nil {
		t.Errorf("adjacent range refused: %v", err)
	}
	if owner, ok := h.Owner(0); !ok || owner != 1 {
		t.Errorf("Owner(0) = %d, %v", owner, ok)
	}
	if owner, ok := h.Owner(8); !ok || owner != 2 {
		t.Errorf("Owner(8) = %d, %v", owner, ok)
	}
	if _, ok := h.Owner(16); ok {
		t.Error("unassigned queue has owner")
	}
	// Releasing unowned queues is a no-op; a partial release keeps the
	// rest of a range owned.
	h.ReleaseQueues(100, 200)
	h.ReleaseQueues(4, 12)
	for q, want := range map[int]int{0: 1, 3: 1, 12: 2, 15: 2} {
		if owner, ok := h.Owner(q); !ok || owner != want {
			t.Errorf("after release Owner(%d) = %d, %v, want %d", q, owner, ok, want)
		}
	}
	for _, q := range []int{4, 8, 11} {
		if owner, ok := h.Owner(q); ok {
			t.Errorf("released queue %d still owned by tenant %d", q, owner)
		}
	}
	if err := h.AssignQueues(4, 12, 3); err != nil {
		t.Errorf("released range not reusable: %v", err)
	}
}

func TestHostGenerationBandwidth(t *testing.T) {
	g3 := newHostRBB(t, 3, 16)
	g4 := newHostRBB(t, 4, 16)
	if g3.HostGbps() >= g4.HostGbps() {
		t.Error("Gen4 should outpace Gen3")
	}
	// Sustained large sends should track the link generation.
	run := func(h *HostRBB) sim.Time {
		var done sim.Time
		for i := 0; i < 200; i++ {
			d, err := h.Send(0, 0, 16384)
			if err != nil {
				t.Fatal(err)
			}
			done = d
		}
		return done
	}
	t3, t4 := run(g3), run(g4)
	if t4 >= t3 {
		t.Errorf("Gen4 drain %v not faster than Gen3 %v", t4, t3)
	}
}

func TestHostWrapperLatencySmall(t *testing.T) {
	h := newHostRBB(t, 4, 16)
	if lat := h.WrapperLatency(); lat > 100*sim.Nanosecond {
		t.Errorf("wrapper latency %v too large", lat)
	}
}

func TestHostSpecQueues(t *testing.T) {
	h := newHostRBB(t, 4, 16)
	if h.Spec().QueueCount != 1024 {
		t.Errorf("queue count = %d, want 1024", h.Spec().QueueCount)
	}
}

func TestHostInvalidConfig(t *testing.T) {
	if _, err := NewHost(platform.Xilinx, 6, 16, ip.SGDMA, userClk(), 512); err == nil {
		t.Error("gen6 should fail")
	}
	if _, err := NewHost(platform.Xilinx, 4, 16, "bogus", userClk(), 512); err == nil {
		t.Error("bogus variant should fail")
	}
}
