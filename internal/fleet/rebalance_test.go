package fleet

import (
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/net"
	"harmonia/internal/sim"
)

// churnFragment strands retired queue ranges by draining nodes (each
// eviction retires the tenant's host queues), reviving them empty, and
// serving so re-placements land on the churned topology. phase, when
// set, receives each serve's result.
func churnFragment(t *testing.T, c *Cluster, rounds int, phase func(PhaseStats, error)) {
	t.Helper()
	cfg := c.Config()
	nodes := c.Nodes()
	for round := 0; round < rounds; round++ {
		id := nodes[round].ID
		if _, err := c.DrainNode(c.Now(), id); err != nil {
			t.Fatal(err)
		}
		c.RunMonitorUntil(c.Now() + cfg.ReconfigTime + 4*cfg.Heartbeat)
		if err := c.Revive(c.Now(), id); err != nil {
			t.Fatal(err)
		}
		tr := DefaultTraffic(testApp)
		tr.Flows = 512
		tr.Seed = int64(100 + round)
		st, err := c.Serve(100*sim.Microsecond, tr)
		if phase != nil {
			phase(st, err)
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// serveRebalanceWindows serves short windows with fresh seeds until the
// predicate holds or the window budget runs out.
func serveRebalanceWindows(t *testing.T, c *Cluster, windows int, done func() bool) {
	t.Helper()
	for w := 0; w < windows; w++ {
		tr := DefaultTraffic(testApp)
		tr.Flows = 512
		tr.Seed = int64(1000 + w)
		if _, err := c.Serve(100*sim.Microsecond, tr); err != nil {
			t.Fatal(err)
		}
		if done() {
			return
		}
	}
}

// TestRebalancePlannedCarriesAllFlows is the tentpole contract on the
// happy path: a planned drain-and-rebuild cycle completes its moves,
// every completed move restores exactly the rows it pre-copied plus the
// delta, the victim's stranded queues come back, the fragmentation
// score strictly decreases, and not one established flow changes
// backend.
func TestRebalancePlannedCarriesAllFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	c := buildStateful(t, cfg, 6)
	tr := DefaultTraffic(testApp)
	tr.Flows = 512
	if _, err := c.Serve(200*sim.Microsecond, tr); err != nil {
		t.Fatal(err)
	}
	churnFragment(t, c, 2, nil)

	pins := make(map[string][]apps.ConnEntry)
	for _, r := range c.Replicas() {
		if r.flows != nil {
			pins[r.Name()] = r.flows.table.Snapshot()
		}
	}
	before := c.Fragmentation()
	if before.StrandedQueues == 0 {
		t.Fatal("churn stranded no queues — nothing to rebalance")
	}

	c.SetLoadBudget(2)
	c.SetRebalance(true)
	serveRebalanceWindows(t, c, 60, func() bool { return c.RebalanceStats().Rebuilds >= 1 })
	c.SetRebalance(false)

	st := c.RebalanceStats()
	if st.Rebuilds < 1 {
		t.Fatalf("no rebuild completed: %+v", st)
	}
	if st.MovesDone < 1 {
		t.Fatalf("no move completed: %+v", st)
	}
	if st.QueuesReclaimed == 0 {
		t.Errorf("rebuild reclaimed no queues: %+v", st)
	}
	after := c.Fragmentation()
	if after.Score >= before.Score {
		t.Errorf("fragmentation did not strictly decrease: %.4f -> %.4f", before.Score, after.Score)
	}
	if after.StrandedQueues >= before.StrandedQueues {
		t.Errorf("stranded queues did not drop: %d -> %d", before.StrandedQueues, after.StrandedQueues)
	}

	// Satellite 1: rebalance records carry ordered per-phase timestamps
	// and exact row accounting.
	moves := 0
	for _, m := range c.Migrations() {
		if m.PlannedAt == 0 {
			continue // failover evacuation, not a rebalance move
		}
		moves++
		if m.Aborted {
			t.Errorf("planned cycle aborted a move: %+v", m)
			continue
		}
		if m.Restored != m.Flows || m.Dropped != 0 {
			t.Errorf("move %s lost rows: restored %d of %d, dropped %d",
				m.Replica, m.Restored, m.Flows, m.Dropped)
		}
		if m.Flows != m.PreCopyRows+m.DeltaRows {
			t.Errorf("move %s accounting: %d flows != %d pre-copy + %d delta",
				m.Replica, m.Flows, m.PreCopyRows, m.DeltaRows)
		}
		if !(m.PlannedAt <= m.PreCopyAt && m.PreCopyAt <= m.DeltaAt && m.DeltaAt <= m.CutoverAt) {
			t.Errorf("move %s phases out of order: planned %v pre-copy %v delta %v cutover %v",
				m.Replica, m.PlannedAt, m.PreCopyAt, m.DeltaAt, m.CutoverAt)
		}
		if m.CutoverAt != m.At {
			t.Errorf("move %s cutover %v != record time %v", m.Replica, m.CutoverAt, m.At)
		}
	}
	if moves == 0 {
		t.Error("no rebalance migration records")
	}

	// Zero disruption: every pre-rebalance pin still routes to its
	// backend, wherever its replica lives now.
	byName := map[string]*Replica{}
	for _, r := range c.Replicas() {
		byName[r.Name()] = r
	}
	for name, entries := range pins {
		r := byName[name]
		if r == nil || r.Node == "" || r.flows == nil {
			t.Fatalf("replica %s lost its home", name)
		}
		for _, e := range entries {
			if got := r.flows.assignment(e.Key); got != e.Backend {
				t.Fatalf("pin %v on %s moved: %v -> %v", e.Key, name, e.Backend, got)
			}
		}
	}

	// Satellite 2: the gauges read through to the same numbers.
	vals := c.Metrics().Values()
	if got := vals[mFragmentation]; got != after.Score {
		t.Errorf("%s = %v, want %v", mFragmentation, got, after.Score)
	}
	if got := vals[mStrandedQueues]; got != float64(after.StrandedQueues) {
		t.Errorf("%s = %v, want %d", mStrandedQueues, got, after.StrandedQueues)
	}
	if got := vals[mRebalanceMoves+`{outcome="done"}`]; got != float64(st.MovesDone) {
		t.Errorf("%s{outcome=done} = %v, want %d", mRebalanceMoves, got, st.MovesDone)
	}
}

// TestRebalanceKillTargetAborts kills the move's target before cutover:
// the move must roll back to the still-serving source — the replica
// stays home with its table intact — while the dead target's own
// replicas fail over normally.
func TestRebalanceKillTargetAborts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	c := buildStateful(t, cfg, 6)
	tr := DefaultTraffic(testApp)
	tr.Flows = 512
	if _, err := c.Serve(200*sim.Microsecond, tr); err != nil {
		t.Fatal(err)
	}
	churnFragment(t, c, 2, nil)
	c.SetLoadBudget(2)
	c.SetRebalance(true)
	if err := c.ArmMigrationFault(faults.RebalanceKillTarget); err != nil {
		t.Fatal(err)
	}
	serveRebalanceWindows(t, c, 60, func() bool { return c.RebalanceStats().MovesAborted >= 1 })
	c.SetRebalance(false)

	if got := c.RebalanceStats().MovesAborted; got < 1 {
		t.Fatalf("kill-target aborted no moves: %+v", c.RebalanceStats())
	}
	byName := map[string]*Replica{}
	for _, r := range c.Replicas() {
		byName[r.Name()] = r
	}
	aborted := 0
	for _, m := range c.Migrations() {
		if m.PlannedAt == 0 || !m.Aborted {
			continue
		}
		aborted++
		r := byName[m.Replica]
		if r == nil {
			t.Fatalf("aborted move names unknown replica %s", m.Replica)
		}
		// Rollback contract: the source was never detached. The replica
		// either still serves from it, or — if the source itself died
		// later — was re-homed by failover; it must be serving either way.
		if r.Node == "" || r.flows == nil {
			t.Errorf("replica %s not serving after abort: node %q", m.Replica, r.Node)
		}
		if r.flows != nil && r.flows.dirtyArmed {
			t.Errorf("replica %s dirty log still armed after abort", m.Replica)
		}
	}
	if aborted == 0 {
		t.Error("no aborted rebalance record")
	}
}

// TestRebalanceKillSourceSnapshotFallback kills the move's source
// mid-pre-copy: the rebalancer aborts and health-driven failover
// recovers the replicas from the periodic snapshot, whose staleness is
// bounded by the capture cadence plus the detection delay.
func TestRebalanceKillSourceSnapshotFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	c := buildStateful(t, cfg, 6)
	tr := DefaultTraffic(testApp)
	tr.Flows = 512
	if _, err := c.Serve(200*sim.Microsecond, tr); err != nil {
		t.Fatal(err)
	}
	churnFragment(t, c, 2, nil)
	c.SetLoadBudget(2)
	c.SetRebalance(true)
	if err := c.ArmMigrationFault(faults.RebalanceKillSource); err != nil {
		t.Fatal(err)
	}
	fallbacks := func() int {
		n := 0
		for _, m := range c.Migrations() {
			if !m.Live {
				n++
			}
		}
		return n
	}
	serveRebalanceWindows(t, c, 60, func() bool {
		return c.RebalanceStats().MovesAborted >= 1 && fallbacks() >= 1
	})
	c.SetRebalance(false)

	if got := c.RebalanceStats().MovesAborted; got < 1 {
		t.Fatalf("kill-source aborted no moves: %+v", c.RebalanceStats())
	}
	if fallbacks() == 0 {
		t.Fatal("no snapshot-fallback migration after the source died")
	}
	// The staleness bound: a capture refreshes every SnapshotEvery
	// successful probes, and detection takes FailedAfter missed
	// heartbeats, so the fallback can never be older than the two plus a
	// barrier of slack.
	bound := sim.Time(cfg.SnapshotEvery+cfg.FailedAfter+2) * cfg.Heartbeat
	for _, m := range c.Migrations() {
		if m.Live {
			continue
		}
		if m.SnapshotAge <= 0 {
			t.Errorf("fallback for %s has snapshot age %v, want > 0", m.Replica, m.SnapshotAge)
		}
		if m.SnapshotAge > bound {
			t.Errorf("fallback for %s is %v stale, bound %v", m.Replica, m.SnapshotAge, bound)
		}
		if m.Restored == 0 && m.Flows > 0 {
			t.Errorf("fallback for %s restored nothing of %d flows", m.Replica, m.Flows)
		}
	}
	// Every replica is serving again.
	for _, r := range c.Replicas() {
		if r.Node == "" {
			t.Errorf("replica %s left unplaced after the fallback", r.Name())
		}
	}
}

// TestRebalancePreemptedByFailover pins the budget contract: at budget
// 1, a failover grant issued while rebalance moves wait must start
// before an earlier-requested move (grant-log preemption pair) and the
// cap must hold throughout.
func TestRebalancePreemptedByFailover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 2
	// Two replicas per device (the drill's density): the rebuild victim
	// hosts several, so its moves must queue behind the single budget
	// slot instead of draining in one grant.
	info, err := apps.Lookup(testApp)
	if err != nil {
		t.Fatal(err)
	}
	svc := AppService(info, 12, net.IPv4(20, 0, 0, 1))
	svc.Stateful = true
	svc.Backends = migrationBackends()
	c, err := BuildServiceCluster(cfg, svc, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	tr := DefaultTraffic(testApp)
	tr.Flows = 512
	if _, err := c.Serve(200*sim.Microsecond, tr); err != nil {
		t.Fatal(err)
	}
	churnFragment(t, c, 2, nil)
	c.SetLoadBudget(1)
	c.SetRebalance(true)
	// Let the rebalancer plan a cycle with queued moves (the first cycle
	// may pick an already-empty node and rebuild it without any), then
	// kill an uninvolved node so failover contends for the single slot.
	serveRebalanceWindows(t, c, 20, func() bool { return c.pendingRebalanceMoves() > 0 })
	if c.pendingRebalanceMoves() == 0 {
		t.Fatal("no rebalance move waiting on budget")
	}
	victim := pickUnrelatedNode(c)
	if victim == nil {
		t.Fatal("no unrelated node to kill")
	}
	rebuildsBefore := c.RebalanceStats().Rebuilds
	failoversBefore := len(c.Failovers())
	if err := c.Kill(victim.ID); err != nil {
		t.Fatal(err)
	}
	serveRebalanceWindows(t, c, 80, func() bool {
		return c.RebalanceStats().Rebuilds > rebuildsBefore && len(c.Failovers()) > failoversBefore
	})
	c.SetRebalance(false)
	if len(c.Failovers()) == failoversBefore {
		t.Fatal("the killed node never failed over")
	}

	if peak := c.LoadBudgetPeak(); peak > 1 {
		t.Errorf("peak concurrent loads %d exceeds budget 1", peak)
	}
	if got := c.LoadsPreempted(); got < 1 {
		t.Errorf("no preemption counted while moves were pending")
	}
	events := c.LoadEvents()
	pairs := 0
	for _, f := range events {
		if f.Class != LoadFailover {
			continue
		}
		for _, e := range events {
			if e.Class == LoadElective && e.ReqAt < f.ReqAt && f.Start < e.Start {
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Error("grant log shows no (elective, failover) preemption pair")
	}
}
