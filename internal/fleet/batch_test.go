package fleet

import (
	"bytes"
	"strings"
	"testing"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// batchPhases runs the determinism workload (clean phase + mid-phase
// kill) with an explicit batch quantum and worker count, returning
// both PhaseStats and the exported trace bytes.
func batchPhases(t *testing.T, quantum, workers int) (PhaseStats, PhaseStats, []byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RouterShards = 4
	cfg.BatchQuantum = quantum
	cfg.ServeWorkers = workers
	c, err := BuildCluster(cfg, testApp, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	c.SetTrace(rec.Process("fleet"))
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	tr := DefaultTraffic(testApp)
	tr.OfferedGbps = 200
	first, err := c.Serve(120*sim.Microsecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(c.Nodes()[2].ID); err != nil {
		t.Fatal(err)
	}
	tr2 := tr
	tr2.Seed = tr.Seed + 50
	second, err := c.Serve(
		sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat+2*cfg.ReconfigTime, tr2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return first, second, buf.Bytes()
}

// TestBatchQuantumInvariant is the batched dispatch determinism
// contract: the quantum only chunks the barrier window — no
// control-plane work runs at a quantum split and the flow caches
// survive it — so same-seed PhaseStats AND trace bytes are
// byte-identical across quantum sizes and worker counts, including
// through a mid-phase failover.
func TestBatchQuantumInvariant(t *testing.T) {
	base1, base2, baseTrace := batchPhases(t, 0, 1)
	if base1.Served == 0 || base2.Served == 0 {
		t.Fatalf("phases served nothing: %+v / %+v", base1, base2)
	}
	for _, tc := range []struct{ quantum, workers int }{
		{1, 1}, {64, 1}, {64, 2}, {4096, 8}, {0, 8},
	} {
		got1, got2, trace := batchPhases(t, tc.quantum, tc.workers)
		if got1 != base1 || got2 != base2 {
			t.Errorf("quantum=%d workers=%d: stats diverge:\n base: %+v / %+v\n got:  %+v / %+v",
				tc.quantum, tc.workers, base1, base2, got1, got2)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Errorf("quantum=%d workers=%d: trace bytes diverge from base", tc.quantum, tc.workers)
		}
	}
}

// TestPreparePhaseUnknownService verifies a phase for a service the
// cluster never commissioned is rejected before any router counter
// moves.
func TestPreparePhaseUnknownService(t *testing.T) {
	cfg := DefaultConfig()
	c, err := BuildCluster(cfg, testApp, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	if _, err := c.Serve(100*sim.Microsecond, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	before := c.RouterStats()
	tr := DefaultTraffic(testApp)
	tr.Service = "no-such-app"
	if _, err := c.PreparePhase(sim.Millisecond, tr); err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Fatalf("PreparePhase(unknown) err = %v, want unknown service", err)
	}
	if after := c.RouterStats(); after != before {
		t.Errorf("unknown service moved router counters: before %+v, after %+v", before, after)
	}
}

// TestServeDeadFleet verifies the zero-ready-replica path: once every
// node is dead the service is still known, so every packet of the
// phase counts as sent and dropped.
func TestServeDeadFleet(t *testing.T) {
	cfg := DefaultConfig()
	c, err := BuildCluster(cfg, testApp, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	for _, n := range c.Nodes() {
		if err := c.Kill(n.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Let the monitor confirm both deaths; with no survivors the
	// replicas stay unplaced and the ready set empties.
	c.RunMonitorUntil(c.Now() + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat + 2*cfg.ReconfigTime)
	before := c.RouterStats()
	st, err := c.Serve(100*sim.Microsecond, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent == 0 || st.Dropped != st.Sent || st.Served != 0 {
		t.Errorf("dead fleet phase = %+v, want every packet sent and dropped", st)
	}
	after := c.RouterStats()
	if after.Sent-before.Sent != st.Sent || after.Dropped-before.Dropped != st.Sent {
		t.Errorf("drops not counted: before %+v, after %+v, phase %+v", before, after, st)
	}
}

// TestWindowResetAcrossBarriers pins the latency-window lifecycle:
// each Serve phase starts a fresh window (resetWindow), windowHist
// merges exactly the packets served since, and a completed phase's
// window does not leak into the next one.
func TestWindowResetAcrossBarriers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouterShards = 4
	c, err := BuildCluster(cfg, testApp, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	tr := DefaultTraffic(testApp)
	tr.OfferedGbps = 200
	first, err := c.Serve(120*sim.Microsecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if first.Served == 0 {
		t.Fatal("first phase served nothing")
	}
	if n := c.router.windowHist().Count(); n != first.Served {
		t.Errorf("window after first phase holds %d samples, want Served=%d", n, first.Served)
	}
	tr2 := tr
	tr2.Seed = tr.Seed + 1
	second, err := c.Serve(120*sim.Microsecond, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.router.windowHist().Count(); n != second.Served {
		t.Errorf("window after second phase holds %d samples, want Served=%d (first phase must not leak)",
			n, second.Served)
	}
	// The merged window is exact, so the phase percentiles must be
	// re-derivable from it at the barrier.
	if h := c.router.windowHist(); h.Percentile(99) != second.P99 {
		t.Errorf("window p99 %v != phase P99 %v", h.Percentile(99), second.P99)
	}
	// An explicit reset empties every shard's window.
	c.router.resetWindow()
	if n := c.router.windowHist().Count(); n != 0 {
		t.Errorf("window holds %d samples after resetWindow, want 0", n)
	}
}
