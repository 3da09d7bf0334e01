package fleet

import (
	"testing"

	"harmonia/internal/faults"
	"harmonia/internal/sim"
)

// TestRackP2CServesAndGroups sanity-checks the rack-first path: the
// shard layout nests in the racks, traffic serves, and the per-rack
// aggregates cover the fleet.
func TestRackP2CServesAndGroups(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Racks = 4
	cfg.RackP2C = true
	c, err := BuildCluster(cfg, testApp, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	stats, err := c.Serve(200*sim.Microsecond, DefaultTraffic(testApp))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Served == 0 {
		t.Fatalf("rack-first dispatch served nothing: %+v", stats)
	}
	if got := c.RackCount(); got != 4 {
		t.Fatalf("RackCount = %d, want 4", got)
	}
	if got := len(c.router.shards); got != 4 {
		t.Fatalf("shard count = %d, want one per rack", got)
	}
	total, ready := 0, 0
	for _, rs := range c.Racks() {
		total += rs.Nodes
		ready += rs.Ready
	}
	if total != 8 {
		t.Errorf("rack node aggregates sum to %d, want 8", total)
	}
	if ready != 8 {
		t.Errorf("rack ready aggregates sum to %d, want 8", ready)
	}
	// Shard = rack: every node's shard must equal its rack.
	for _, n := range c.Nodes() {
		if n.shard != n.rack {
			t.Errorf("node %s: shard %d != rack %d", n.ID, n.shard, n.rack)
		}
	}
}

// TestGossipKillDetectionAndFailover is the gossip-mode counterpart of
// the cohort detection test: a silently killed device is confirmed
// dead within GossipDetectionBound, feeds the normal failover path and
// ends drained.
func TestGossipKillDetectionAndFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipHealth = true
	c, err := BuildCluster(cfg, testApp, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)

	victim := c.Nodes()[0].ID
	faultAt := c.Now()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	bound := c.GossipDetectionBound()
	c.RunMonitorUntil(faultAt + bound)

	n, err := c.Node(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n.State() != Drained {
		t.Fatalf("victim state = %s after %v, want drained", n.State(), bound)
	}
	reports := c.Failovers()
	if len(reports) != 1 {
		t.Fatalf("got %d failover reports, want 1", len(reports))
	}
	detect := reports[0].DetectedAt - faultAt
	if detect <= 0 || detect > bound {
		t.Errorf("detection latency %v outside (0, %v]", detect, bound)
	}
	// FailedAfter semantics survive the protocol swap: confirmation
	// needs FailedAfter consecutive missed probes, one tick apart at
	// best (escalation), so detection cannot beat FailedAfter-1 ticks.
	if min := sim.Time(cfg.FailedAfter-1) * cfg.Heartbeat; detect < min {
		t.Errorf("detection latency %v beats %d consecutive missed probes (%v)",
			detect, cfg.FailedAfter, min)
	}
	// The confirmation must be on the protocol event log too.
	confirmed := false
	for _, ev := range c.GossipEvents() {
		if ev.Node == victim && ev.Kind == "confirmed" {
			confirmed = true
		}
	}
	if !confirmed {
		t.Error("no confirmed gossip event for the victim")
	}
}

// TestGossipFalseSuspicionRefutedNoFailover plants a false suspicion
// of a live node: the protocol must refute it with an incarnation bump
// and the fleet must never start a failover.
func TestGossipFalseSuspicionRefutedNoFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipHealth = true
	c, err := BuildCluster(cfg, testApp, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)

	target := c.Nodes()[3].ID
	took, err := c.InjectGossipSuspicion(target)
	if err != nil {
		t.Fatal(err)
	}
	if !took {
		t.Fatal("suspicion of a live node did not take")
	}
	c.RunMonitorUntil(c.Now() + 2*c.GossipDetectionBound())

	n, _ := c.Node(target)
	if n.State() != Healthy {
		t.Fatalf("falsely suspected node is %s, want healthy", n.State())
	}
	if got := len(c.Failovers()); got != 0 {
		t.Fatalf("false suspicion caused %d failovers", got)
	}
	refuted, confirmed := false, false
	for _, ev := range c.GossipEvents() {
		if ev.Node != target {
			continue
		}
		switch ev.Kind {
		case "refuted":
			refuted = true
			if ev.Incarnation == 0 {
				t.Error("refutation did not bump the incarnation")
			}
		case "confirmed":
			confirmed = true
		}
	}
	if !refuted {
		t.Error("no refutation event for the falsely suspected node")
	}
	if confirmed {
		t.Error("falsely suspected live node was confirmed dead")
	}
	if st := c.GossipStats(); st.Refutations == 0 {
		t.Errorf("gossip stats recorded no refutations: %+v", st)
	}
}

// TestGossipStormDetectionBound replays the fleet5 storm's injection
// schedule (monitor only, no traffic) against a 300-node gossip fleet
// and asserts the detection-latency bound for every silent kill: each
// killed node's Failed transition lands within GossipDetectionBound of
// the kill. Nodes that only suffered the sub-threshold command
// corruption burst must never fail — the FailedAfter tolerance the
// protocol preserves from the central sweep.
func TestGossipStormDetectionBound(t *testing.T) {
	if testing.Short() {
		t.Skip("300-node storm replay")
	}
	const devices = 300
	cfg := DefaultConfig()
	cfg.GossipHealth = true
	c, err := BuildCluster(cfg, testApp, devices, devices)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)

	spec := faults.DefaultStorm(devices, 11)
	spec.Start = c.Now()
	sched, err := faults.Storm(spec)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.Nodes()
	killedAt := map[string]sim.Time{}
	for _, inj := range sched.Injections {
		c.RunMonitorUntil(inj.At)
		id := ""
		if inj.Node >= 0 && inj.Node < len(nodes) {
			id = nodes[inj.Node].ID
		}
		switch inj.Kind {
		case faults.KillNode:
			if err := c.Kill(id); err != nil {
				t.Fatal(err)
			}
			killedAt[id] = inj.At
		case faults.LinkDown:
			if err := c.CutLink(inj.At, id); err != nil {
				t.Fatal(err)
			}
		case faults.LinkUp:
			if err := c.Revive(inj.At, id); err != nil {
				t.Fatal(err)
			}
		case faults.ThermalSet:
			if inj.Arg == 0 {
				err = c.Cool(id)
			} else {
				err = c.Overheat(id, inj.Arg)
			}
			if err != nil {
				t.Fatal(err)
			}
		case faults.CorruptStart:
			limit := int(inj.Arg)
			nodes[inj.Node].Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
				if attempt < limit && len(buf) > 0 {
					buf[0] ^= 0xFF
				}
				return buf
			})
		case faults.CorruptEnd:
			nodes[inj.Node].Inst.SetWireFaultInjector(nil)
		}
		// PR-load and backend faults exercise paths this replay's
		// stateless, no-traffic fleet does not take.
	}
	if len(killedAt) == 0 {
		t.Fatal("storm killed nothing")
	}
	bound := c.GossipDetectionBound()
	c.RunMonitorUntil(sched.End() + 2*bound)

	detected := map[string]sim.Time{}
	for _, tr := range c.Transitions() {
		if tr.To == Failed {
			if _, seen := detected[tr.Node]; !seen {
				detected[tr.Node] = tr.At
			}
		}
	}
	for id, at := range killedAt {
		d, ok := detected[id]
		if !ok {
			t.Errorf("killed node %s never declared failed", id)
			continue
		}
		if lat := d - at; lat <= 0 || lat > bound {
			t.Errorf("node %s: detection latency %v outside (0, %v]", id, lat, bound)
		}
	}
	// The corrupted set's burst (CorruptAttempts < driver retries) must
	// never cost a node: command-path retransmission absorbs it.
	for _, i := range sched.Corrupted {
		id := nodes[i].ID
		if _, failed := detected[id]; failed {
			t.Errorf("corruption-burst node %s was declared failed", id)
		}
	}
	// Amortization: the whole storm's probe cost stays O(fanout) per
	// tick — far under the central sweep's N probes per tick.
	st := c.GossipStats()
	if st.Ticks == 0 {
		t.Fatal("gossip ran no ticks")
	}
	if perTick := float64(st.Probes) / float64(st.Ticks); perTick > devices/4 {
		t.Errorf("%.1f probes/tick across the storm; want O(fanout), got O(N)", perTick)
	}
}
