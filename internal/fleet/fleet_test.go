package fleet

import (
	"strings"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

const testApp = "layer4-lb"

// buildTest builds an n-device layer4-lb fleet with one replica per
// device, or fails the test.
func buildTest(t *testing.T, n, replicas int) *Cluster {
	t.Helper()
	c, err := BuildCluster(DefaultConfig(), testApp, n, replicas)
	if err != nil {
		t.Fatalf("BuildCluster: %v", err)
	}
	return c
}

func TestBuildClusterPlacesAndSpreads(t *testing.T) {
	c := buildTest(t, 3, 3)
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("commissioned %d nodes, want 3", got)
	}
	for _, n := range c.Nodes() {
		if n.State() != Healthy {
			t.Errorf("%s state = %s, want healthy", n.ID, n.State())
		}
		if n.Slots() == 0 {
			t.Errorf("%s has no PR slots", n.ID)
		}
		// Anti-affinity: 3 replicas over 3 devices must spread 1:1:1,
		// not bin-pack onto the first device.
		if got := len(n.Replicas()); got != 1 {
			t.Errorf("%s hosts %d replicas, want 1 (anti-affinity)", n.ID, got)
		}
	}
	for _, r := range c.Replicas() {
		if r.Node == "" {
			t.Errorf("replica %s unplaced", r.Name())
		}
		if want := c.Config().ReconfigTime; r.ReadyAt != want {
			t.Errorf("replica %s ReadyAt = %v, want %v (one PR load)", r.Name(), r.ReadyAt, want)
		}
	}
}

func TestPlacementPacksBeyondDeviceCount(t *testing.T) {
	// 6 replicas over 3 devices: anti-affinity spreads 2 per device.
	c := buildTest(t, 3, 6)
	for _, n := range c.Nodes() {
		if got := len(n.Replicas()); got != 2 {
			t.Errorf("%s hosts %d replicas, want 2", n.ID, got)
		}
	}
}

func TestCommissionAdaptsHeterogeneousMemory(t *testing.T) {
	// layer4-lb demands HBM. device-b carries only DDR4 — commissioning
	// must fall back rather than reject the card.
	info, err := apps.Lookup(testApp)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(AppService(info, 1, net.IPv4(20, 0, 0, 1))); err != nil {
		t.Fatal(err)
	}
	plat, err := platform.Lookup("device-b")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Commission("b-1", plat)
	if err != nil {
		t.Fatalf("Commission(device-b): %v", err)
	}
	if n.Slots() == 0 {
		t.Error("device-b supports no slots after URAM folding")
	}

	// device-c has no memory banks at all: no fallback exists.
	platC, err := platform.Lookup("device-c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commission("c-1", platC); err == nil {
		t.Error("Commission(device-c) succeeded; want memory-demand rejection")
	}
}

func TestKillFailoverLeavesVictimEmpty(t *testing.T) {
	// The acceptance drill: kill a device mid-run and verify the control
	// plane detects it over the command path, re-places every tenant on
	// the survivors and leaves zero placements on the corpse.
	c := buildTest(t, 3, 3)
	cfg := c.Config()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)

	victim := c.Nodes()[0].ID
	faultAt := c.Now()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Detection needs FailedAfter consecutive missed heartbeats; run the
	// monitor well past that.
	c.RunMonitorUntil(faultAt + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat)

	n, err := c.Node(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != Drained {
		t.Fatalf("victim state = %s, want drained", n.State())
	}
	if got := len(c.ReplicasOn(victim)); got != 0 {
		t.Fatalf("%d placements remain on failed device %s, want 0", got, victim)
	}
	for _, r := range c.Replicas() {
		if r.Node == victim {
			t.Errorf("replica %s still assigned to failed device", r.Name())
		}
		if r.Node == "" {
			t.Errorf("replica %s unplaced after failover", r.Name())
		}
	}

	reports := c.Failovers()
	if len(reports) != 1 {
		t.Fatalf("got %d failover reports, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Node != victim {
		t.Errorf("failover report names %s, want %s", rep.Node, victim)
	}
	if rep.Moved != 1 || rep.Replaced != 1 || rep.Unplaced != 0 {
		t.Errorf("moved/replaced/unplaced = %d/%d/%d, want 1/1/0",
			rep.Moved, rep.Replaced, rep.Unplaced)
	}
	if rec := rep.Recovery(faultAt); rec <= 0 {
		t.Errorf("recovery time = %v, want > 0", rec)
	} else if rec < cfg.ReconfigTime {
		t.Errorf("recovery time %v below one PR load %v", rec, cfg.ReconfigTime)
	}
}

func TestCutLinkFailsImmediately(t *testing.T) {
	// Link-down arrives over the irq path, bypassing heartbeat latency:
	// the node must fail at the event time, not a heartbeat later.
	c := buildTest(t, 2, 2)
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	victim := c.Nodes()[1].ID
	at := c.Now()
	if err := c.CutLink(at, victim); err != nil {
		t.Fatal(err)
	}
	n, _ := c.Node(victim)
	if n.State() != Drained {
		t.Fatalf("victim state = %s, want drained (no heartbeat wait)", n.State())
	}
	reports := c.Failovers()
	if len(reports) != 1 || reports[0].DetectedAt != at {
		t.Fatalf("detection at %v, want %v (irq path)", reports[0].DetectedAt, at)
	}
}

func TestOverheatDegradesThenRecovers(t *testing.T) {
	c := buildTest(t, 2, 2)
	cfg := c.Config()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	id := c.Nodes()[0].ID
	if err := c.Overheat(id, 80_000); err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(c.Now() + 2*cfg.Heartbeat)
	n, _ := c.Node(id)
	if n.State() != Degraded {
		t.Fatalf("state after overheat = %s, want degraded", n.State())
	}
	if n.LastTemp() < cfg.DegradeMilliC {
		t.Errorf("last heartbeat temp %d below threshold %d", n.LastTemp(), cfg.DegradeMilliC)
	}
	// Degraded devices keep their placements (they still serve) but take
	// no new ones.
	if got := len(n.Replicas()); got != 1 {
		t.Errorf("degraded node lost its replica (have %d)", got)
	}
	if n.canHost(c.services[testApp]) {
		t.Error("degraded node accepted for new placement")
	}

	if err := c.Cool(id); err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(c.Now() + 2*cfg.Heartbeat)
	if n.State() != Healthy {
		t.Fatalf("state after cooling = %s, want healthy", n.State())
	}
}

func TestDrainNodeEvacuatesPlanned(t *testing.T) {
	c := buildTest(t, 3, 3)
	cfg := c.Config()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	id := c.Nodes()[2].ID
	rep, err := c.DrainNode(c.Now(), id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved != 1 || rep.Replaced != 1 {
		t.Errorf("moved/replaced = %d/%d, want 1/1", rep.Moved, rep.Replaced)
	}
	n, _ := c.Node(id)
	if n.State() != Drained {
		t.Errorf("state = %s, want drained", n.State())
	}
	if got := len(c.ReplicasOn(id)); got != 0 {
		t.Errorf("%d replicas remain on drained node", got)
	}
	// A drained node is live: the tenancy manager really evicted, so its
	// slots are free again.
	if free := n.Tenants.FreeSlots(); free != n.Slots() {
		t.Errorf("drained node has %d free slots, want %d", free, n.Slots())
	}
}

func TestRouteAvoidsDeadDevice(t *testing.T) {
	c := buildTest(t, 3, 3)
	cfg := c.Config()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	victim := c.Nodes()[0].ID
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(c.Now() + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat)
	// Wait out the replacement replica's reconfiguration.
	c.RunMonitorUntil(c.Now() + 2*cfg.ReconfigTime)

	tr := DefaultTraffic(testApp)
	stats, err := c.Serve(100*sim.Microsecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served == 0 {
		t.Fatal("no packets served after failover")
	}
	if stats.Dropped != 0 {
		t.Errorf("%d drops routing around a drained device", stats.Dropped)
	}
	// The drained device's datapath must have taken nothing.
	for _, ns := range c.Fleet(c.Now()) {
		if ns.ID == victim && ns.Served != 0 {
			t.Errorf("dead device %s served %d packets", victim, ns.Served)
		}
	}
}

// TestUnsteerableReplicaDrops covers the dispatch view's steering
// check: once a replica's node's flow director no longer resolves its
// VIP, every packet sent to it drops before the device crossing. The
// phase and the service count each drop, the datapath takes nothing,
// and each drop's trace instant names the node.
func TestUnsteerableReplicaDrops(t *testing.T) {
	c := buildTest(t, 1, 1)
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	rec := obs.NewRecorder()
	c.SetTrace(rec.Process("fleet"))
	rep := c.Replicas()[0]
	n := c.byID[rep.Node]
	n.Net.Director.RemoveTenant(rep.Tenant)

	stats, err := c.Serve(100*sim.Microsecond, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent == 0 || stats.Served != 0 || stats.Dropped != stats.Sent {
		t.Fatalf("phase = %+v, want every sent packet dropped", stats)
	}
	if svc := c.ServiceStats(testApp); svc.Dropped != stats.Sent || svc.Shed != 0 {
		t.Errorf("service stats = %+v, want %d drops and no sheds", svc, stats.Sent)
	}
	if rx := n.Net.RxStats(); rx.Units != 0 || rx.Drops != 0 {
		t.Errorf("datapath counters = %+v, want untouched", rx)
	}
	var drops int64
	for _, e := range rec.Events() {
		if e.Name != "drop" {
			continue
		}
		drops++
		if e.K1 != "node" || e.V1 != n.ID {
			t.Fatalf("drop instant names %s=%q, want node=%q", e.K1, e.V1, n.ID)
		}
	}
	if drops != stats.Dropped {
		t.Errorf("trace holds %d drop instants, want %d", drops, stats.Dropped)
	}
}

func TestServeAggregateThroughput(t *testing.T) {
	c := buildTest(t, 2, 2)
	c.RunMonitorUntil(2 * c.Config().ReconfigTime)
	tr := DefaultTraffic(testApp)
	stats, err := c.Serve(200*sim.Microsecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served == 0 || stats.GoodputGbps <= 0 {
		t.Fatalf("served=%d goodput=%.1f, want traffic flowing", stats.Served, stats.GoodputGbps)
	}
	if stats.P99 < stats.P50 {
		t.Errorf("p99 %v below p50 %v", stats.P99, stats.P50)
	}
	// Both replicas should take a share under two-choice balancing.
	for _, ns := range c.Fleet(c.Now()) {
		if ns.Served == 0 {
			t.Errorf("device %s served nothing under balanced dispatch", ns.ID)
		}
	}
}

func TestScaleOutThroughputGrows(t *testing.T) {
	pts, err := ScaleOut(DefaultConfig(), testApp, 3, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d sweep points, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Devices != i+1 || p.GoodputGbps <= 0 {
			t.Fatalf("point %d: devices=%d goodput=%.1f", i, p.Devices, p.GoodputGbps)
		}
	}
	// The acceptance shape: aggregate throughput grows with device count.
	if pts[2].GoodputGbps <= pts[0].GoodputGbps*1.5 {
		t.Errorf("3-device goodput %.1f Gbps not meaningfully above 1-device %.1f Gbps",
			pts[2].GoodputGbps, pts[0].GoodputGbps)
	}
}

func TestKillDrillDeterministic(t *testing.T) {
	run := func() *DrillResult {
		t.Helper()
		d, err := KillDrill(DefaultConfig(), testApp, 3, DefaultTraffic(testApp))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := run(), run()
	if a.Killed != b.Killed || a.RecoveryTime != b.RecoveryTime ||
		a.Pre.Served != b.Pre.Served || a.Post.Served != b.Post.Served {
		t.Errorf("drill not reproducible:\n a=%+v\n b=%+v", a, b)
	}
	if a.RecoveryTime <= 0 {
		t.Errorf("recovery time = %v, want > 0", a.RecoveryTime)
	}
	if a.Moved == 0 || a.Replaced != a.Moved || a.Unplaced != 0 {
		t.Errorf("moved/replaced/unplaced = %d/%d/%d, want full re-placement",
			a.Moved, a.Replaced, a.Unplaced)
	}
	if a.Post.Served == 0 {
		t.Error("no traffic served after recovery")
	}
}

func TestPlaceRejectsUnsatisfiableService(t *testing.T) {
	lb, err := apps.Lookup(testApp)
	if err != nil {
		t.Fatal(err)
	}
	retrieval, err := apps.Lookup("retrieval")
	if err != nil {
		t.Fatal(err)
	}
	pcie5 := AppService(lb, 1, net.IPv4(20, 0, 0, 1))
	pcie5.MinPCIeGen = 5 // no catalog card reaches gen5
	// device-c carries no DDR4 or HBM: a memory-free service lets it
	// commission, and layer4-lb's HBM demand, registered afterwards,
	// cannot adapt to it.
	noMem := AppService(lb, 1, net.IPv4(20, 0, 1, 1))
	noMem.Name, noMem.Demands.Memory = "lb-no-memory", nil
	for _, tc := range []struct {
		name, device  string
		before, after []Service // registered before and after commissioning
		unhosted      string
	}{
		{"pcie-floor", "device-a", []Service{pcie5}, nil, testApp},
		// retrieval's logic is twice the default slot budget.
		{"slot-budget", "device-a", []Service{AppService(retrieval, 1, net.IPv4(20, 0, 2, 1))}, nil, "retrieval"},
		{"missing-peripheral", "device-c", []Service{noMem}, []Service{AppService(lb, 1, net.IPv4(20, 0, 3, 1))}, testApp},
		// No unhosted service: device-a hosts both, the second registered
		// after commissioning grew the node's per-service tallies.
		{"registered-after", "device-a", []Service{noMem}, []Service{AppService(lb, 1, net.IPv4(20, 0, 3, 1))}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			plat, err := platform.Lookup(tc.device)
			if err != nil {
				t.Fatal(err)
			}
			for _, svc := range tc.before {
				if err := c.AddService(svc); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Commission("n-1", plat); err != nil {
				t.Fatal(err)
			}
			for _, svc := range tc.after {
				if err := c.AddService(svc); err != nil {
					t.Fatal(err)
				}
			}
			placed, err := c.Place(0)
			if tc.unhosted == "" {
				if err != nil || len(placed) != 2 {
					t.Fatalf("Place placed %d replicas, error %v; want both", len(placed), err)
				}
				if p := ledger(c); len(p) > 0 {
					t.Errorf("ledger: %v", p)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "host "+tc.unhosted+"/") {
				t.Errorf("Place error = %v, want no device hosting a %s replica", err, tc.unhosted)
			}
		})
	}
}

// TestPickNodeAllocatesNothing pins the placement scan at zero
// allocations once each (node, service) static fit is cached, while it
// rejects a degraded node and a full one on the way.
func TestPickNodeAllocatesNothing(t *testing.T) {
	// device-a has 2 slots, device-b and device-d 4: two replicas each
	// fill the first node only.
	c := buildTest(t, 3, 6)
	cfg := c.Config()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	nodes := c.Nodes()
	full, degraded, open := nodes[0], nodes[1], nodes[2]
	if err := c.Overheat(degraded.ID, 80_000); err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(c.Now() + 2*cfg.Heartbeat)
	if full.Tenants.FreeSlots() != 0 || degraded.State() != Degraded {
		t.Fatalf("%s has %d free slots and %s is %s; want a full node and a degraded one",
			full.ID, full.Tenants.FreeSlots(), degraded.ID, degraded.State())
	}
	svc := c.services[testApp]
	if got := c.pickNode(svc, nil); got != open {
		t.Fatalf("pickNode = %v, want %s", got, open.ID)
	}
	if a := testing.AllocsPerRun(100, func() { c.pickNode(svc, nil) }); a != 0 {
		t.Errorf("pickNode allocates %.0f objects per scan, want 0", a)
	}
}

// BenchmarkFleetPlace times the initial placement of a fresh
// 1000-node layer4-lb fleet with one replica per node; commissioning
// each iteration's fleet stays outside the timer.
func BenchmarkFleetPlace(b *testing.B) {
	const nodes = 1000
	info, err := apps.Lookup(testApp)
	if err != nil {
		b.Fatal(err)
	}
	svc := AppService(info, nodes, net.IPv4(20, 0, 0, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := commission(DefaultConfig(), []Service{svc}, nodes)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Place(0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCohortHeartbeatDetection verifies the cohort monitor's bounded
// failure detection: with C cohorts each sweep probes only ~N/C
// devices, yet a silent device is still declared failed after
// FailedAfter consecutive missed probes, within FailedAfter*C ticks.
func TestCohortHeartbeatDetection(t *testing.T) {
	const nodes, cohorts = 6, 3
	cfg := DefaultConfig()
	cfg.HeartbeatCohorts = cohorts
	c, err := BuildCluster(cfg, testApp, nodes, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)

	victim := c.Nodes()[0].ID
	faultAt := c.Now()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// The worst-case detection budget: FailedAfter missed probes at
	// cohort cadence, plus one full rotation of probe-phase skew.
	budget := sim.Time((cfg.FailedAfter+1)*cohorts) * cfg.Heartbeat
	c.RunMonitorUntil(faultAt + budget)

	n, err := c.Node(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != Drained {
		t.Fatalf("victim state = %s after %v, want drained (cohort detection)", n.State(), budget)
	}
	reports := c.Failovers()
	if len(reports) != 1 {
		t.Fatalf("got %d failover reports, want 1", len(reports))
	}
	detect := reports[0].DetectedAt - faultAt
	if detect <= 0 || detect > budget {
		t.Errorf("detection latency %v outside (0, %v]", detect, budget)
	}
	// FailedAfter semantics: detection cannot beat FailedAfter probes
	// of this node, which are cohorts ticks apart.
	if min := sim.Time((cfg.FailedAfter-1)*cohorts) * cfg.Heartbeat; detect < min {
		t.Errorf("detection latency %v beats %d probes at cohort cadence (%v)",
			detect, cfg.FailedAfter, min)
	}
}

// TestCohortHeartbeatProbesSubset verifies the amortization itself:
// one sweep with C cohorts touches only the due cohort's devices.
func TestCohortHeartbeatProbesSubset(t *testing.T) {
	const nodes, cohorts = 6, 3
	cfg := DefaultConfig()
	cfg.HeartbeatCohorts = cohorts
	c, err := BuildCluster(cfg, testApp, nodes, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// One sweep: exactly the nodes with index % cohorts == 0 get a
	// fresh temperature reading.
	c.Heartbeat(cfg.Heartbeat)
	probed := 0
	for i, n := range c.Nodes() {
		if n.LastTemp() != 0 {
			probed++
			if i%cohorts != 0 {
				t.Errorf("node %d (cohort %d) probed on cohort 0's tick", i, i%cohorts)
			}
		}
	}
	if want := nodes / cohorts; probed != want {
		t.Errorf("first sweep probed %d nodes, want %d", probed, want)
	}
	// After a full rotation every node has been probed.
	for i := 1; i < cohorts; i++ {
		c.Heartbeat(cfg.Heartbeat * sim.Time(i+1))
	}
	for _, n := range c.Nodes() {
		if n.LastTemp() == 0 {
			t.Errorf("node %s never probed after a full cohort rotation", n.ID)
		}
	}
}
