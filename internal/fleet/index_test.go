package fleet

import (
	"math/rand"
	"sort"
	"testing"

	"harmonia/internal/sim"
)

// indexed lists every indexed ready replica of a service, across its
// active shards.
func indexed(c *Cluster, name string) []*Replica {
	svc := c.services[name]
	var out []*Replica
	for _, s := range svc.active {
		out = append(out, svc.ready[s]...)
	}
	return out
}

// checkIndexConsistency cross-checks the incremental replica index
// against the naive candidates() scan — the oracle it replaces — for
// every registered service at the cluster's current time.
func checkIndexConsistency(t *testing.T, c *Cluster, when string) {
	t.Helper()
	c.router.freeze()
	c.router.mature(c.now)
	names := func(rs []*Replica) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.Name() + "@" + r.Node
		}
		sort.Strings(out)
		return out
	}
	for _, svc := range c.Services() {
		want := names(c.candidates(svc, c.now))
		got := names(indexed(c, svc))
		if len(want) != len(got) {
			t.Fatalf("%s: %s: index has %d candidates, scan has %d\nindex: %v\nscan:  %v",
				when, svc, len(got), len(want), got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: %s: index/scan diverge at %d: %s vs %s",
					when, svc, i, got[i], want[i])
			}
		}
	}
}

// TestIndexMatchesScanThroughLifecycle walks the index through the
// basic placement lifecycle: pending replicas mature into the index,
// failover drains a dead node's replicas out and their replacements
// back in.
func TestIndexMatchesScanThroughLifecycle(t *testing.T) {
	c := buildTest(t, 4, 4)
	cfg := c.Config()
	checkIndexConsistency(t, c, "before maturation") // all pending
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	checkIndexConsistency(t, c, "after maturation")
	if got := len(indexed(c, testApp)); got != 4 {
		t.Fatalf("index holds %d matured replicas, want 4", got)
	}

	victim := c.Nodes()[1].ID
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(c.Now() + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat)
	checkIndexConsistency(t, c, "after failover (replacement pending)")
	c.RunMonitorUntil(c.Now() + 2*cfg.ReconfigTime)
	checkIndexConsistency(t, c, "after replacement matured")
	for _, r := range indexed(c, testApp) {
		if r.Node == victim {
			t.Fatalf("index still lists replica %s on dead node %s", r.Name(), victim)
		}
	}
}

// TestIndexMatchesScanRandomized drives a seeded random sequence of
// failures, recoveries, drains and serving phases, cross-checking the
// incremental index against the naive scan after every transition.
func TestIndexMatchesScanRandomized(t *testing.T) {
	const nodes = 6
	cfg := DefaultConfig()
	cfg.RouterShards = 3
	c, err := BuildCluster(cfg, testApp, nodes, nodes)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	checkIndexConsistency(t, c, "initial")

	rng := rand.New(rand.NewSource(42))
	alive := func() []*Node {
		var out []*Node
		for _, n := range c.Nodes() {
			if c.routableState(n.State()) {
				out = append(out, n)
			}
		}
		return out
	}
	for step := 0; step < 60; step++ {
		live := alive()
		if len(live) < 2 {
			break
		}
		pick := live[rng.Intn(len(live))]
		switch op := rng.Intn(5); op {
		case 0: // silent death, detected by missed heartbeats
			if err := c.Kill(pick.ID); err != nil {
				t.Fatal(err)
			}
			c.RunMonitorUntil(c.Now() + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat)
		case 1: // thermal degrade
			if err := c.Overheat(pick.ID, 80_000); err != nil {
				t.Fatal(err)
			}
			c.RunMonitorUntil(c.Now() + 2*cfg.Heartbeat)
		case 2: // recover a degraded device
			if err := c.Cool(pick.ID); err != nil {
				t.Fatal(err)
			}
			c.RunMonitorUntil(c.Now() + 2*cfg.Heartbeat)
		case 3: // planned drain
			if _, err := c.DrainNode(c.Now(), pick.ID); err != nil {
				t.Fatal(err)
			}
		case 4: // serve a short phase (matures replacements mid-flight)
			tr := DefaultTraffic(testApp)
			tr.Seed = int64(step)
			if _, err := c.Serve(20*sim.Microsecond, tr); err != nil {
				t.Fatal(err)
			}
		}
		// Let pending re-placements mature half the time, so the
		// cross-check also covers the pending window.
		if rng.Intn(2) == 0 {
			c.RunMonitorUntil(c.Now() + 2*cfg.ReconfigTime)
		}
		checkIndexConsistency(t, c, "randomized step")
	}
}
