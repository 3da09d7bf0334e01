package fleet

import (
	"strings"
	"testing"

	"harmonia/internal/sim"
)

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
	// The merge reuses router-owned storage: every phase and registry
	// read takes one.
	if a := testing.AllocsPerRun(10, func() { c.router.windowHist() }); a != 0 {
		t.Errorf("windowHist allocates %.0f objects per read, want 0", a)
	}
	// An explicit reset empties every shard's window.
	c.router.resetWindow()
	if n := c.router.windowHist().Count(); n != 0 {
		t.Errorf("window holds %d samples after resetWindow, want 0", n)
	}
}
