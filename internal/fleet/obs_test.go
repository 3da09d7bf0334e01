package fleet

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// tracedChaos runs the small storm with a full recorder attached and
// returns the result and the exported Chrome trace-event bytes.
func tracedChaos(t *testing.T) (*ChaosResult, []byte) {
	t.Helper()
	opts := chaosTestOptions()
	rec := obs.NewRecorder()
	opts.Trace = rec
	res, err := ChaosDrill(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// tracedChaosOnce shares one traced run between the JSON and the trace
// determinism tests.
var tracedChaosOnce struct {
	sync.Once
	res   *ChaosResult
	trace []byte
}

func testTracedChaos(t *testing.T) (*ChaosResult, []byte) {
	t.Helper()
	tracedChaosOnce.Do(func() { tracedChaosOnce.res, tracedChaosOnce.trace = tracedChaos(t) })
	if tracedChaosOnce.res == nil {
		t.Fatal("shared traced chaos run failed")
	}
	return tracedChaosOnce.res, tracedChaosOnce.trace
}

// TestChaosTraceDeterministicAndValid replays the storm twice from the
// same seed and requires byte-identical traces — the flight-recording
// counterpart of the drill's JSON reproducibility contract — and that
// one run carries every span kind of the taxonomy.
func TestChaosTraceDeterministicAndValid(t *testing.T) {
	if testing.Short() {
		t.Skip("two full traced drill runs")
	}
	_, a := testTracedChaos(t)
	_, b := tracedChaos(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two same-seed chaos runs produced different trace bytes")
	}
	stats, err := obs.ValidateTrace(a, []obs.Cat{
		obs.CatPacket, obs.CatPRLoad, obs.CatHeartbeat, obs.CatMigration, obs.CatFault,
		obs.CatRack, obs.CatGossip,
	})
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	if stats.Events == 0 || stats.Metadata == 0 {
		t.Fatalf("trace stats = %+v, want events and metadata", stats)
	}
	// The storm corrupts command wires, so the command path must have
	// recorded retries or drops, and health transitions must appear.
	if stats.ByCat[string(obs.CatCmd)] == 0 {
		t.Error("no command-path anomaly spans despite wire corruption")
	}
	if stats.ByCat[string(obs.CatHealth)] == 0 {
		t.Error("no health transition events despite failovers")
	}
}

// servedGossipCluster returns a gossip-health fleet that has served a
// phase through two silent deaths under a one-load PR budget, so the
// router, command-path, per-service, gossip and budget counters have
// all moved.
func servedGossipCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.GossipHealth = true
	c, err := BuildCluster(cfg, testApp, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	c.SetLoadBudget(1)
	for _, n := range c.Nodes()[:2] {
		if err := c.Kill(n.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Serve(c.GossipDetectionBound()+4*cfg.ReconfigTime, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRegistryMatchesAccessors checks the single-source property: a
// registry snapshot equals the public stats accessors its callbacks
// call, for the router, command-path, per-service, gossip and PR-load
// budget series.
func TestRegistryMatchesAccessors(t *testing.T) {
	c := servedGossipCluster(t)
	vals := c.Metrics().Values()
	rs, cp, gs := c.RouterStats(), c.CmdPath(), c.GossipStats()
	svcs := c.Services()
	if rs.Sent == 0 || rs.Served == 0 || cp.Issued == 0 || gs.Ticks == 0 ||
		c.LoadsQueued() == 0 || len(svcs) != 1 {
		t.Fatalf("phase left counters idle: router %+v, cmd %+v, gossip %+v, queued %d, services %v",
			rs, cp, gs, c.LoadsQueued(), svcs)
	}
	ss := c.ServiceStats(svcs[0])
	svc := func(metric string) string { return metric + `{service="` + svcs[0] + `"}` }
	for name, want := range map[string]int64{
		mRouterSent:      rs.Sent,
		mRouterServed:    rs.Served,
		mRouterDropped:   rs.Dropped,
		mRouterHealthy:   rs.HealthyServed,
		mRouterBytes:     rs.Bytes,
		mCmdIssued:       cp.Issued,
		mCmdRetries:      cp.Retries,
		mCmdDrops:        cp.Drops,
		svc(mSvcSent):    ss.Sent,
		svc(mSvcServed):  ss.Served,
		svc(mSvcDropped): ss.Dropped,
		svc(mSvcHealthy): ss.HealthyServed,
		svc(mSvcShed):    ss.Shed,
		svc(mSvcBytes):   ss.Bytes,
		mGossipTicks:     gs.Ticks,
		mGossipProbes:    gs.Probes,
		mGossipDigests:   gs.Digests,
		mGossipSuspects:  gs.Suspicions,
		mGossipRefutes:   gs.Refutations,
		mGossipConfirms:  gs.Confirmations,
		mLoadsPeak:       int64(c.LoadBudgetPeak()),
		mLoadsQueued:     int64(c.LoadsQueued()),
		mLoadsPreempted:  int64(c.LoadsPreempted()),
		mLoadFailures:    c.LoadFailures(),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("registry has no %s", name)
		} else if got != float64(want) {
			t.Errorf("registry %s = %v, accessor %d", name, got, want)
		}
	}
	if ss.Sent != rs.Sent {
		t.Errorf("one-service fleet: service sent %d != router sent %d", ss.Sent, rs.Sent)
	}
	if got := vals[mNodes+`{state="drained"}`]; got != 2 {
		t.Errorf("drained node gauge = %v, want 2", got)
	}
	var prom bytes.Buffer
	if err := obs.WriteProm(&prom, c.Metrics()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE " + mRouterSent + " counter",
		"# TYPE " + mRouteLatency + " summary",
		mSimNow,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStatsAccessorsAllocateNothing pins the stats accessors to direct
// counter sums: callers such as per-window checks read them on every
// window, so none may allocate.
func TestStatsAccessorsAllocateNothing(t *testing.T) {
	c := servedGossipCluster(t)
	name := c.Services()[0]
	for _, tc := range []struct {
		name string
		read func()
	}{
		{"ServiceStats", func() { _ = c.ServiceStats(name) }},
		{"RouterStats", func() { _ = c.RouterStats() }},
		{"CmdPath", func() { _ = c.CmdPath() }},
		{"GossipStats", func() { _ = c.GossipStats() }},
	} {
		if got := testing.AllocsPerRun(100, tc.read); got != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, got)
		}
	}
}

// TestSetTraceDetaches verifies nil-detach returns the cluster to the
// zero-cost state after a traced phase.
func TestSetTraceDetaches(t *testing.T) {
	c := buildTest(t, 2, 2)
	rec := obs.NewFlightRecorder(64)
	c.SetTrace(rec.Process("fleet"))
	tr := DefaultTraffic(testApp)
	if _, err := c.Serve(sim.Millisecond, tr); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("traced phase recorded nothing")
	}
	c.SetTrace(nil)
	for _, sh := range c.router.shards {
		if sh.trace != nil {
			t.Error("shard trace still attached after detach")
		}
	}
	if c.ctrl != nil || c.cmdTrack != nil {
		t.Error("control/cmd tracks still attached after detach")
	}
	before := len(rec.Events())
	if _, err := c.Serve(sim.Millisecond, tr); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Events()); got != before {
		t.Errorf("detached cluster recorded %d new events", got-before)
	}
}
