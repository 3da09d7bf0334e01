package fleet

import (
	"errors"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/hdl"
	"harmonia/internal/net"
	"harmonia/internal/workload"
)

// phaseWindowAllocs bounds one steady heartbeat window in
// TestPhaseWindowAllocs: what remains is per window, not per packet or
// per service — the phase itself and the barrier's control plane.
const phaseWindowAllocs = 5

// TestPhaseRunsOnce checks the phase lifecycle: a phase's storage goes
// back to the cluster when it runs, so a second Run of the same phase
// is refused, while Packets keeps reporting its size.
func TestPhaseRunsOnce(t *testing.T) {
	c, err := BuildCluster(DefaultConfig(), testApp, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	ph, err := c.PreparePhase(c.Config().Heartbeat-1, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	n := ph.n
	st, err := ph.Run()
	if err != nil || st.Sent == 0 {
		t.Fatalf("first Run = %+v, %v", st, err)
	}
	if _, err := ph.Run(); !errors.Is(err, errPhaseRan) {
		t.Errorf("second Run err = %v, want %v", err, errPhaseRan)
	}
	if ph.n != n {
		t.Errorf("Packets after Run = %d, want %d", ph.n, n)
	}
}

// TestPhaseFlowHashes checks each packet's flow index and flow hash
// against the packet workload.AppendPackets generates for its traffic
// shape, for single and co-resident phases and for a flow count past
// the memo bound (hashed per packet), across recycled storage.
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
		if len(ph.hashes) != len(ph.flows) || len(ph.flows) != ph.n {
			t.Fatalf("phase %d: %d hashes for %d flow indices (Packets %d)", i, len(ph.hashes), len(ph.flows), ph.n)
		}
		// Each shape's packets, in its own stream order: the merge keeps
		// every stream's order, so packet k is the next of its service's.
		counts := make([]int, len(traffics))
		for _, ti := range ph.svcIdx {
			counts[ti]++
		}
		pkts := make([][]net.Packet, len(traffics))
		for ti, tr := range traffics {
			cfg := workload.PacketConfig{Count: counts[ti], Size: tr.PktBytes, Flows: tr.Flows, Seed: tr.Seed}
			if pkts[ti], err = workload.AppendPackets(nil, cfg); err != nil {
				t.Fatal(err)
			}
		}
		next := make([]int, len(traffics))
		for k, f := range ph.flows {
			ti := ph.svcIdx[k]
			want := pkts[ti][next[ti]].Flow()
			next[ti]++
			if flowKey(f) != want || ph.hashes[k] != want.Hash() {
				t.Fatalf("phase %d packet %d: flow %d keys %+v, hash %#x; want %+v, hash %#x",
					i, k, f, flowKey(f), ph.hashes[k], want, want.Hash())
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
	var slab *int32
	window := func() {
		ph, err := c.PrepareMultiPhase(cfg.Heartbeat-1, coResTraffics(0))
		if err != nil {
			t.Fatal(err)
		}
		if slab != nil && &ph.flows[0] != slab {
			t.Fatal("prepare allocated fresh flow-index storage instead of reusing the last phase's")
		}
		slab = &ph.flows[0]
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

// TestPhaseWindowAllocs checks that serving several services costs no
// more allocations than serving one: on a sharded three-service fleet,
// a steady heartbeat window (prepare, run, barrier) offering all three
// services' traffic allocates no more than one offering a single
// service's, and neither exceeds a fixed per-window bound.
func TestPhaseWindowAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServeWorkers = 1
	cfg.RouterShards = 4
	cfg.SlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}
	const devices = 8
	var svcs []Service
	for i, app := range []string{testApp, coresBulkApp, testSecApp} {
		info, err := apps.Lookup(app)
		if err != nil {
			t.Fatal(err)
		}
		svcs = append(svcs, AppService(info, devices/(i+1), net.IPv4(20+10*byte(i), 0, 0, 1)))
	}
	three := coresTraffics(1, 0)
	window := func(traffics []Traffic) (allocs float64, sent int64) {
		c, err := BuildCoResidentCluster(cfg, svcs, devices)
		if err != nil {
			t.Fatal(err)
		}
		c.RunMonitorUntil(2 * cfg.ReconfigTime)
		run := func() {
			ph, err := c.PrepareMultiPhase(cfg.Heartbeat-1, traffics)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ph.Run()
			if err != nil {
				t.Fatal(err)
			}
			sent = st.Sent
			c.RunMonitorUntil(c.Now() + 1)
		}
		run()
		return testing.AllocsPerRun(10, run), sent
	}
	one, oneSent := window(three[:1])
	multi, multiSent := window(three)
	if oneSent < 1000 || multiSent <= oneSent {
		t.Fatalf("windows sent %d (one service) and %d (three); the bound needs real windows", oneSent, multiSent)
	}
	t.Logf("allocs per window: one service %.0f (%d pkts), three services %.0f (%d pkts)", one, oneSent, multi, multiSent)
	if multi > one {
		t.Errorf("three-service window allocates %.0f objects, one-service %.0f: per-service scratch is allocated per window", multi, one)
	}
	if one > phaseWindowAllocs {
		t.Errorf("one-service window allocates %.0f objects, want <= %d", one, phaseWindowAllocs)
	}
}
