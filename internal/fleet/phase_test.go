package fleet

import (
	"errors"
	"testing"

	"harmonia/internal/net"
)

// TestPhaseRunsOnce checks the phase lifecycle: a phase's storage goes
// back to the cluster when it runs, so a second Run or RunBaseline of
// the same phase is refused, while Packets keeps reporting its size.
func TestPhaseRunsOnce(t *testing.T) {
	c, err := BuildCluster(DefaultConfig(), testApp, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	hb := c.Config().Heartbeat
	ph, err := c.PreparePhase(hb-1, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	n := ph.Packets()
	st, err := ph.Run()
	if err != nil || st.Sent == 0 {
		t.Fatalf("first Run = %+v, %v", st, err)
	}
	if _, err := ph.Run(); !errors.Is(err, errPhaseRan) {
		t.Errorf("second Run err = %v, want %v", err, errPhaseRan)
	}
	if _, err := ph.RunBaseline(); !errors.Is(err, errPhaseRan) {
		t.Errorf("RunBaseline after Run err = %v, want %v", err, errPhaseRan)
	}
	if ph.Packets() != n {
		t.Errorf("Packets after Run = %d, want %d", ph.Packets(), n)
	}

	bph, err := c.PreparePhase(hb-1, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bph.RunBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, err := bph.Run(); !errors.Is(err, errPhaseRan) {
		t.Errorf("Run after RunBaseline err = %v, want %v", err, errPhaseRan)
	}
}

// TestPhaseFlowHashes checks the per-flow-index hash memo against
// hashing every packet's own tuple, for single and co-resident phases
// and for a flow count past the memo bound, across recycled storage.
func TestPhaseFlowHashes(t *testing.T) {
	c := coResTestCluster(t, DefaultConfig(), 4)
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	hb := c.Config().Heartbeat
	wide := DefaultTraffic(testApp)
	wide.Flows = 3 * flowHashMemo
	for i, traffics := range [][]Traffic{coResTraffics(0), {DefaultTraffic(testApp)}, {wide}, coResTraffics(5)} {
		ph, err := c.PrepareMultiPhase(hb-1, traffics)
		if err != nil {
			t.Fatal(err)
		}
		if len(ph.hashes) != len(ph.pkts) || len(ph.pkts) != ph.Packets() {
			t.Fatalf("phase %d: %d hashes for %d packets (Packets %d)", i, len(ph.hashes), len(ph.pkts), ph.Packets())
		}
		for k := range ph.pkts {
			if want := ph.pkts[k].Flow().Hash(); ph.hashes[k] != want {
				t.Fatalf("phase %d packet %d: hash %#x, want %#x", i, k, ph.hashes[k], want)
			}
		}
		if _, err := ph.Run(); err != nil {
			t.Fatal(err)
		}
		c.RunMonitorUntil(c.Now() + 1)
	}
}

// TestPhaseWindowRecyclesStorage bounds a steady heartbeat window —
// prepare a co-resident phase, run it, fire the barrier — once the
// cluster holds recycled storage: allocations must not scale with the
// packets served.
func TestPhaseWindowRecyclesStorage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServeWorkers = 1
	c := coResTestCluster(t, cfg, 4)
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	var sent int64
	var slab *net.Packet
	window := func() {
		ph, err := c.PrepareMultiPhase(cfg.Heartbeat-1, coResTraffics(0))
		if err != nil {
			t.Fatal(err)
		}
		if slab != nil && &ph.pkts[0] != slab {
			t.Fatal("prepare allocated a fresh packet slab instead of reusing the last phase's")
		}
		slab = &ph.pkts[0]
		st, err := ph.Run()
		if err != nil {
			t.Fatal(err)
		}
		sent = st.Sent
		c.RunMonitorUntil(c.Now() + 1)
	}
	window()
	allocs := testing.AllocsPerRun(10, window)
	if sent < 1000 {
		t.Fatalf("window sent %d packets; the bound needs a real window", sent)
	}
	// The remainder is per window, not per packet: the seeded
	// generators, the phase itself and the barrier's control plane.
	if allocs > 40 {
		t.Errorf("steady window allocates %.0f objects for %d packets, want <= 40", allocs, sent)
	}
}
