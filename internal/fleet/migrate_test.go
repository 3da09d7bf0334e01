package fleet

import (
	"math/rand"
	"slices"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/net"
	"harmonia/internal/sim"
)

// buildStateful builds and settles an n-device fleet hosting replicas
// replicas of a stateful layer4-lb service with fleet4's backend pool.
func buildStateful(t testing.TB, cfg Config, n, replicas int) *Cluster {
	t.Helper()
	svc, err := drillService(testApp, replicas, net.IPv4(20, 0, 0, 1), migrationPool)
	if err != nil {
		t.Fatal(err)
	}
	c, err := BuildCoResidentCluster(cfg, []Service{svc}, n)
	if err != nil {
		t.Fatalf("BuildCoResidentCluster: %v", err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	return c
}

func TestStatefulServiceValidation(t *testing.T) {
	c, err := NewCluster(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(Service{Name: "s", Replicas: 1, Stateful: true}); err == nil {
		t.Error("stateful service without backends accepted")
	}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = -1
	if _, err := NewCluster(cfg); err == nil {
		t.Error("negative SnapshotEvery accepted")
	}
}

func TestFlowSnapshotTravelsCommandPath(t *testing.T) {
	// The acceptance assertion: snapshot and replay are real command
	// transactions executed by the source and target control kernels,
	// not an out-of-band copy.
	c := buildStateful(t, DefaultConfig(), 3, 3)
	if _, err := c.Serve(200*sim.Microsecond, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	src := c.Nodes()[2]
	reps := src.Replicas()
	if len(reps) != 1 || reps[0].flows == nil {
		t.Fatalf("node %s should host 1 stateful replica", src.ID)
	}
	pinned := reps[0].flows.table.Len()
	if pinned == 0 {
		t.Fatal("no flows established on the source replica")
	}
	srcBefore := src.Inst.Kernel().Executed()
	rep, err := c.DrainNode(c.Now(), src.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != pinned {
		t.Errorf("migrated %d flows, want %d", rep.Migrated, pinned)
	}
	// The drain read the table off the source device: at least one
	// TableRead per framed row beyond the heartbeat traffic.
	if delta := src.Inst.Kernel().Executed() - srcBefore; delta < 1 {
		t.Errorf("source kernel executed %d commands during drain, want table reads", delta)
	}
	recs := c.Migrations()
	if len(recs) != 1 {
		t.Fatalf("got %d migration records, want 1", len(recs))
	}
	mr := recs[0]
	if !mr.Live || mr.From != src.ID || mr.Restored != pinned || mr.Dropped != 0 {
		t.Errorf("record %+v, want live migration of %d flows from %s", mr, pinned, src.ID)
	}
	// The replayed table is really inside the target replica.
	r := reps[0]
	tgt, err := c.Node(r.Node)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.ID == src.ID {
		t.Fatal("replica did not move")
	}
	if got := r.flows.table.Len(); got != pinned {
		t.Errorf("target table holds %d flows, want %d", got, pinned)
	}
	// And it is readable back over the target's command path.
	entries, err := c.readFlowSnapshot(tgt, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != pinned {
		t.Errorf("target snapshot has %d entries, want %d", len(entries), pinned)
	}
}

func TestDeadNodeFallsBackToPeriodicSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1 // capture on every successful probe
	c := buildStateful(t, cfg, 3, 3)
	if _, err := c.Serve(200*sim.Microsecond, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	victim := c.Nodes()[0]
	reps := victim.Replicas()
	if len(reps) != 1 || reps[0].flows == nil {
		t.Fatalf("node %s should host 1 stateful replica", victim.ID)
	}
	pinned := reps[0].flows.table.Len()
	if pinned == 0 {
		t.Fatal("no flows established")
	}
	if err := c.Kill(victim.ID); err != nil {
		t.Fatal(err)
	}
	// The kill corrupts the command wire, so no further snapshot can be
	// taken; failover must use the last periodic capture.
	c.RunMonitorUntil(c.Now() + sim.Time(cfg.FailedAfter+2)*cfg.Heartbeat)
	if victim.State() != Drained {
		t.Fatalf("victim state = %s, want drained", victim.State())
	}
	recs := c.Migrations()
	if len(recs) != 1 {
		t.Fatalf("got %d migration records, want 1", len(recs))
	}
	mr := recs[0]
	if mr.Live {
		t.Error("dead-node migration claims a live table read")
	}
	if mr.Restored == 0 || mr.Restored > pinned {
		t.Errorf("restored %d flows from snapshot, want 1..%d", mr.Restored, pinned)
	}
	// The snapshot predates detection by at least the missed heartbeats.
	if mr.SnapshotAge <= 0 {
		t.Errorf("snapshot age = %v, want > 0 (capture predates detection)", mr.SnapshotAge)
	}
}

func TestMigrationDisabledCarriesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrateFlows = false
	c := buildStateful(t, cfg, 3, 3)
	if _, err := c.Serve(200*sim.Microsecond, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.DrainNode(c.Now(), c.Nodes()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 0 || len(c.Migrations()) != 0 {
		t.Errorf("migration ran while disabled: %d flows, %d records",
			rep.Migrated, len(c.Migrations()))
	}
}

func TestClusterRemoveBackendEvicts(t *testing.T) {
	c := buildStateful(t, DefaultConfig(), 2, 2)
	if _, err := c.Serve(200*sim.Microsecond, DefaultTraffic(testApp)); err != nil {
		t.Fatal(err)
	}
	dead := backends(migrationPool)[1]
	pinnedToDead := 0
	for _, r := range c.Replicas() {
		for _, e := range r.flows.table.Snapshot() {
			if e.Backend == dead {
				pinnedToDead++
			}
		}
	}
	if pinnedToDead == 0 {
		t.Fatal("no flows pinned to the target backend")
	}
	evicted, err := c.RemoveBackend(testApp, dead, true)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != pinnedToDead {
		t.Errorf("evicted %d flows, want %d", evicted, pinnedToDead)
	}
	if _, err := c.RemoveBackend(testApp, net.IPv4(9, 9, 9, 9), true); err == nil {
		t.Error("removing unknown backend should fail")
	}
	if _, err := c.RemoveBackend("nope", dead, true); err == nil {
		t.Error("unknown service should fail")
	}
}

func TestMigrationDrillBeatsColdRestart(t *testing.T) {
	d, err := MigrationDrill()
	if err != nil {
		t.Fatal(err)
	}
	if d.Cold.Established == 0 || d.Migrated.Established == 0 {
		t.Fatal("drill established no flows")
	}
	if d.Cold.Established != d.Migrated.Established {
		t.Errorf("cases diverged: %d vs %d established flows",
			d.Cold.Established, d.Migrated.Established)
	}
	// The headline: cold restart re-hashes established flows at the
	// pool-change rate; migration carries pins across, disrupting
	// strictly fewer and staying within the Maglev re-hash bound.
	if f := d.Failures(); len(f) != 0 {
		t.Errorf("gates failed: %v (cold disrupted %d, migrated %d at %.4f, bound %.4f)",
			f, d.Cold.Disrupted, d.Migrated.Disrupted, d.Migrated.Disruption, d.MaglevBound)
	}
	if d.MaglevBound <= 0 {
		t.Errorf("maglev bound = %v, want > 0 after a backend drain", d.MaglevBound)
	}
	if d.Migrated.FlowsCarried == 0 {
		t.Error("migrated case carried no flows")
	}
	if d.Cold.FlowsCarried != 0 {
		t.Errorf("cold case carried %d flows, want 0", d.Cold.FlowsCarried)
	}
	if len(d.Records) == 0 {
		t.Error("no migration records from the migrated case")
	}
}

func TestTransitionsMonotonic(t *testing.T) {
	// Regression: failNode/DrainNode used to stamp the Drained step at
	// the (future) recovery completion time, so with ReconfigTime much
	// larger than Heartbeat the log ran backwards: later heartbeat
	// transitions carried earlier timestamps than the Drained entry
	// before them.
	cfg := DefaultConfig()
	cfg.ReconfigTime = 400 * cfg.Heartbeat
	cl, err := BuildCluster(cfg, testApp, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl.RunMonitorUntil(2 * cfg.ReconfigTime)
	if err := cl.Kill(cl.Nodes()[0].ID); err != nil {
		t.Fatal(err)
	}
	// Run long enough for the failover plus many post-failover
	// heartbeats that land before the replacement's ReadyAt.
	cl.RunMonitorUntil(cl.Now() + cfg.ReconfigTime + 50*cfg.Heartbeat)
	// Degrade another node after the drain decision but before its
	// completion would have been stamped under the old scheme.
	if err := cl.Overheat(cl.Nodes()[1].ID, 80_000); err != nil {
		t.Fatal(err)
	}
	cl.RunMonitorUntil(cl.Now() + 3*cfg.Heartbeat)

	trs := cl.Transitions()
	if len(trs) < 3 {
		t.Fatalf("expected several transitions, got %d", len(trs))
	}
	for i := 1; i < len(trs); i++ {
		if trs[i].At < trs[i-1].At {
			t.Errorf("transition log runs backwards: %v after %v", trs[i], trs[i-1])
		}
	}
	foundDrained := false
	for _, tr := range trs {
		if tr.To == Drained {
			foundDrained = true
			if tr.CompletedAt <= tr.At {
				t.Errorf("drained transition %v should record a later completion", tr)
			}
		}
	}
	if !foundDrained {
		t.Error("no drained transition recorded")
	}
}

func TestDrainRacingSourceDeath(t *testing.T) {
	// Failover racing an in-flight migration: the source answers the
	// first TableRead of a planned drain, then dies before the export
	// completes. The drain must fall back to the periodic snapshot and
	// finish — not wedge on the half-read live table or lose the state.
	cfg := DefaultConfig()
	cfg.SnapshotEvery = 1 // capture on every successful probe
	c := buildStateful(t, cfg, 3, 3)
	tr := DefaultTraffic(testApp)
	tr.Flows = 512 // enough pins that the export spans several rows
	if _, err := c.Serve(200*sim.Microsecond, tr); err != nil {
		t.Fatal(err)
	}
	victim := c.Nodes()[0]
	reps := victim.Replicas()
	if len(reps) != 1 || reps[0].flows == nil {
		t.Fatalf("node %s should host 1 stateful replica", victim.ID)
	}
	r := reps[0]
	pinned := r.flows.table.Len()
	if pinned <= 60 {
		t.Fatalf("only %d flows pinned, need a multi-row export", pinned)
	}
	snap := r.snap
	if len(snap.entries) == 0 {
		t.Fatal("no periodic snapshot captured before the drain")
	}

	// The source dies mid-drain: the first command (the row-0 TableRead
	// that starts the export) succeeds, every later command — including
	// the rest of the table read — is corrupted past all retries.
	cmds := 0
	victim.Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
		if attempt == 0 {
			cmds++
		}
		if cmds > 1 && len(buf) > 0 {
			buf[0] ^= 0xFF
		}
		return buf
	})

	// Drain off a heartbeat tick so the fallback capture is strictly
	// older than the decision time.
	rep, err := c.DrainNode(c.Now()+3*sim.Microsecond, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cmds < 2 {
		t.Fatalf("drain issued %d commands on the source, want the export to have started", cmds)
	}
	if rep.Replaced != 1 || rep.Unplaced != 0 {
		t.Fatalf("failover report %+v, want the replica re-placed", rep)
	}
	if r.Node == "" || r.Node == victim.ID {
		t.Fatalf("replica landed on %q, want a surviving node", r.Node)
	}
	recs := c.Migrations()
	if len(recs) != 1 {
		t.Fatalf("got %d migration records, want 1", len(recs))
	}
	mr := recs[0]
	if mr.Live {
		t.Error("migration claims a live read despite the source dying mid-export")
	}
	if mr.Flows != len(snap.entries) {
		t.Errorf("carried %d flows, want the %d from the periodic snapshot", mr.Flows, len(snap.entries))
	}
	if mr.Restored == 0 {
		t.Error("snapshot fallback restored nothing")
	}
	if mr.SnapshotAge <= 0 {
		t.Errorf("snapshot age = %v, want > 0 (capture predates the drain)", mr.SnapshotAge)
	}
}

// pinRandomFlows pins n new flows with random keys into a table.
func pinRandomFlows(ft *apps.FlowTable, rng *rand.Rand, n int) {
	for added := 0; added < n; {
		k := net.FlowKey{
			SrcIP: net.IPv4(172, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))),
			DstIP: net.IPv4(20, 0, 0, 1), Proto: net.ProtoTCP,
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 80,
		}
		if _, ok := ft.Peek(k); !ok && ft.Pin(k, backends(migrationPool)[rng.Intn(8)]) {
			added++
		}
	}
}

// captureFixture returns a fleet whose first node hosts one stateful
// replica holding a 650-entry connection table, already captured.
func captureFixture(t testing.TB) (*Cluster, *Node, *Replica) {
	c := buildStateful(t, DefaultConfig(), 3, 3)
	n := c.Nodes()[0]
	if len(n.stateful) != 1 {
		t.Fatalf("node %s hosts %d stateful replicas, want 1", n.ID, len(n.stateful))
	}
	r := n.stateful[0]
	pinRandomFlows(r.flows.table, rand.New(rand.NewSource(1)), 650)
	c.snapshotNode(c.Now(), n, c.ctrl, nil)
	return c, n, r
}

// TestFlowCaptureAllocatesNothing captures an unchanged 650-entry table
// over the command path, probe after probe: once the first capture
// holds the table, no layer of the round trip allocates.
func TestFlowCaptureAllocatesNothing(t *testing.T) {
	c, n, r := captureFixture(t)
	capture := func() { c.snapshotNode(c.Now(), n, c.ctrl, nil) }
	if got := testing.AllocsPerRun(20, capture); got != 0 {
		t.Errorf("capturing an unchanged table allocates %.1f objects, want 0", got)
	}
	if got := r.snap.entries; !slices.Equal(got, r.flows.table.Snapshot()) {
		t.Errorf("capture holds %d entries, want the table's %d", len(got), r.flows.table.Len())
	}
}

// TestFlowCaptureFailureKeepsLastGood makes a periodic capture fail
// mid-read: the previous capture must survive intact, and the next
// successful probe must capture the table as it is.
func TestFlowCaptureFailureKeepsLastGood(t *testing.T) {
	c, n, r := captureFixture(t)
	before := slices.Clone(r.snap.entries)
	pinRandomFlows(r.flows.table, rand.New(rand.NewSource(2)), 300)
	cmds := 0
	n.Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
		if attempt == 0 {
			cmds++
		}
		if cmds > 1 {
			buf[0] ^= 0xFF // every row after the first is lost
		}
		return buf
	})
	c.snapshotNode(c.Now(), n, c.ctrl, nil)
	if got := r.snap.entries; !slices.Equal(got, before) {
		t.Fatalf("failed capture changed the last good one: %d entries, had %d", len(got), len(before))
	}
	n.Inst.SetWireFaultInjector(nil)
	c.snapshotNode(c.Now(), n, c.ctrl, nil)
	if got := r.snap.entries; !slices.Equal(got, r.flows.table.Snapshot()) {
		t.Errorf("recovered capture holds %d entries, want the table's %d", len(got), r.flows.table.Len())
	}
}

// BenchmarkFlowCapture measures one probe's periodic capture of a
// ~650-entry connection table that took 20 new pins since the last
// probe: the pins, the merge, the row encode, the TableRead round trips
// and the decode into the recycled capture.
func BenchmarkFlowCapture(b *testing.B) {
	c, n, r := captureFixture(b)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 3 {
			// Back to 650 entries, so the table stays near that size.
			b.StopTimer()
			r.flows.table = apps.NewFlowTable(flowTableCap)
			pinRandomFlows(r.flows.table, rng, 650)
			c.snapshotNode(c.Now(), n, c.ctrl, nil)
			b.StartTimer()
		}
		pinRandomFlows(r.flows.table, rng, 20)
		c.snapshotNode(c.Now(), n, c.ctrl, nil)
	}
}
