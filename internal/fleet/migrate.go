package fleet

import (
	"fmt"
	"slices"
	"strings"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/device"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// Live migration of stateful LB flows. A stateful service's replicas
// each pin flows to backends in a connection table; losing a replica
// without that table re-hashes every established flow onto the current
// backend pool, disrupting any flow whose pool changed since it was
// pinned. Migration carries the table across failover: the control
// plane exports it through ordinary TableRead commands (the role
// module's dynamic table source), and replays it into the replacement
// replica through TableWrite commands after its slot reconfigures.
// Planned drains read the live table; a dead node's table is whatever
// the periodic snapshot (taken alongside heartbeats) last captured.

// FlowTableBase is the role-module table ID space reserved for
// connection-table transfers; a replica's table ID is
// FlowTableBase | tenantID, so co-resident stateful tenants never
// collide on the module's table bindings.
const FlowTableBase uint32 = 0x4C420000

// defaultSnapshotEvery is the periodic snapshot cadence (in successful
// heartbeat probes) when Config.SnapshotEvery is zero.
const defaultSnapshotEvery = 8

// flowTableCap bounds a replica's connection table.
const flowTableCap = 1 << 16

// flowState is one stateful replica's datapath flow state: the
// connection table plus the service's shared backend pool. It is bound
// to the hosting device's role control module as a dynamic table, so
// the table's only way on or off the device is the command path.
type flowState struct {
	c     *Cluster
	svc   *service
	table *apps.FlowTable
	// export is the capture being read out: reading row 0 takes the
	// table's Snapshot, and every row encodes its words from it on
	// demand.
	export []apps.ConnEntry
	// importBuf accumulates written rows until the framed length
	// (declared by the row-0 header) is reached, then restores.
	importBuf  []uint32
	importNext uint32
	// restored/dropped report the last completed import.
	restored, dropped int
	// dirty, while armed, logs every pin made after a rebalance move's
	// pre-copy capture; the delta replayed before cutover. Appends happen
	// on the shard worker owning this replica's packets, arming and
	// draining on the serial barrier path — never concurrently.
	dirtyArmed bool
	dirty      []apps.ConnEntry
}

// process records one routed packet: established flows hit their pin,
// new flows pin to the pool's current assignment.
func (fs *flowState) process(k net.FlowKey) {
	if _, ok := fs.table.Lookup(k); ok {
		return
	}
	b := fs.svc.pool.Lookup(k)
	if fs.table.Pin(k, b) && fs.dirtyArmed {
		fs.dirty = append(fs.dirty, apps.ConnEntry{Key: k, Backend: b})
	}
}

// assignment reports where the replica sends a flow right now: its pin
// when established, the pool's hash otherwise. This is the measurement
// the migration drill compares before and after failover.
func (fs *flowState) assignment(k net.FlowKey) net.IPAddr {
	if b, ok := fs.table.Peek(k); ok {
		return b
	}
	return fs.svc.pool.Lookup(k)
}

// exportRow serves TableRead: row 0 snapshots the table, and every row
// returns its command-sized slice of the framed stream, encoded into the
// cluster's shared row buffer: it is only valid until the next table
// read, and readFlowSnapshot copies each row out.
func (fs *flowState) exportRow(index uint32) ([]uint32, bool) {
	if index == 0 {
		fs.export = fs.table.Snapshot()
	}
	total := apps.FlowSnapshotLen(len(fs.export))
	lo := int(index) * cmdif.MaxTableRowWords
	if lo >= total {
		return nil, false
	}
	fs.c.tableRow = apps.AppendFlowSnapshot(fs.c.tableRow[:0], fs.export, lo, min(lo+cmdif.MaxTableRowWords, total))
	return fs.c.tableRow, true
}

// importRow accepts TableWrite: rows arrive in order starting at 0;
// when the framed length is complete the entries restore into the
// table.
func (fs *flowState) importRow(index uint32, entry []uint32) error {
	if index == 0 {
		fs.importBuf = fs.importBuf[:0]
		fs.importNext = 0
	}
	if index != fs.importNext {
		return fmt.Errorf("flow import row %d out of order (want %d)", index, fs.importNext)
	}
	fs.importNext++
	fs.importBuf = append(fs.importBuf, entry...)
	total, err := apps.FlowSnapshotWords(fs.importBuf)
	if err != nil {
		return err
	}
	if len(fs.importBuf) > total {
		return fmt.Errorf("flow import overran framed length %d", total)
	}
	if len(fs.importBuf) == total {
		entries, err := apps.DecodeFlowSnapshot(fs.importBuf)
		if err != nil {
			return err
		}
		fs.restored, fs.dropped = fs.table.Restore(entries)
	}
	return nil
}

// flowTableID is the replica's table ID on its node's role module.
func flowTableID(r *Replica) uint32 { return FlowTableBase | uint32(r.Tenant) }

// newFlowState returns an empty connection table for one replica of
// svc.
func newFlowState(c *Cluster, svc *service) *flowState {
	return &flowState{c: c, svc: svc, table: apps.NewFlowTable(flowTableCap)}
}

// bindFlowTable binds fs to table tid on n's role control module,
// making the connection table reachable over the command path; a nil
// fs unbinds the table. It reports false when the node has no role
// module.
func bindFlowTable(n *Node, tid uint32, fs *flowState) bool {
	m, ok := n.Inst.Kernel().Module(device.RBBRole, 0)
	if !ok {
		return false
	}
	if fs == nil {
		m.SetTableSource(tid, nil)
		m.SetTableSink(tid, nil)
	} else {
		m.SetTableSource(tid, fs.exportRow)
		m.SetTableSink(tid, fs.importRow)
	}
	return true
}

// statefulIndex finds r's position in the node's name-ordered stateful
// list, or where it would go.
func (n *Node) statefulIndex(r *Replica) (int, bool) {
	return slices.BinarySearchFunc(n.stateful, r.Name(), func(have *Replica, name string) int {
		return strings.Compare(have.Name(), name)
	})
}

// addStateful inserts r into the node's stateful list, keeping name
// order.
func (n *Node) addStateful(r *Replica) {
	if i, ok := n.statefulIndex(r); !ok {
		n.stateful = slices.Insert(n.stateful, i, r)
	}
}

// readFlowSnapshot pulls a replica's connection table off its device
// through TableRead transactions: row 0 carries the framed header
// declaring the stream length, later rows follow until complete. The
// entries decode into dst's storage (apps.DecodeFlowSnapshotInto); a
// nil dst returns a new slice.
func (c *Cluster) readFlowSnapshot(n *Node, r *Replica, dst []apps.ConnEntry) ([]apps.ConnEntry, error) {
	tid := flowTableID(r)
	words, err := n.Inst.AppendTableRow(c.tableWords[:0], device.RBBRole, 0, tid, 0)
	if err != nil {
		return nil, err
	}
	c.tableWords = words
	total, err := apps.FlowSnapshotWords(words)
	if err != nil {
		return nil, err
	}
	for row := uint32(1); len(words) < total; row++ {
		have := len(words)
		if words, err = n.Inst.AppendTableRow(words, device.RBBRole, 0, tid, row); err != nil {
			return nil, err
		}
		c.tableWords = words
		if len(words) == have {
			return nil, fmt.Errorf("fleet: flow snapshot truncated at row %d", row)
		}
	}
	if len(words) > total {
		return nil, fmt.Errorf("fleet: flow snapshot overran framed length %d", total)
	}
	return apps.DecodeFlowSnapshotInto(dst, words)
}

// flowSnap is one periodic connection-table capture (Replica.snap).
type flowSnap struct {
	at      sim.Time
	entries []apps.ConnEntry
}

// snapshotNode refreshes the periodic captures of every stateful
// replica on a live node, over the command path. Called from the
// heartbeat sweep; a node that stops answering commands keeps its last
// successful capture — that staleness is exactly what dead-node
// failover inherits.
//
// Each capture decodes into the storage of the one it replaces, once
// every row has arrived and the stream has been validated: a failed
// read leaves the last good capture intact, a table that did not grow
// is captured without allocating, and one that grew gets an array of
// exactly its size.
func (c *Cluster) snapshotNode(now sim.Time, n *Node) {
	for _, r := range n.stateful {
		entries, err := c.readFlowSnapshot(n, r, r.snap.entries)
		if err != nil {
			continue
		}
		r.snap = flowSnap{at: now, entries: entries}
		if c.ctrl != nil {
			e := obs.Instant(obs.CatMigration, "snapshot", now)
			e.K1, e.V1 = "replica", r.Name()
			e.K2, e.V2 = "entries", int64(len(entries))
			c.ctrl.Add(e)
		}
	}
}

// snapshotEvery resolves the periodic snapshot cadence.
func (c *Cluster) snapshotEvery() int64 {
	if c.cfg.SnapshotEvery > 0 {
		return int64(c.cfg.SnapshotEvery)
	}
	return defaultSnapshotEvery
}

// MigrationRecord reports one connection table carried across a
// failover.
type MigrationRecord struct {
	Replica  string
	From, To string
	// At is when the replacement's slot reconfiguration completes — the
	// replayed table serves traffic from this point.
	At sim.Time
	// Live distinguishes a table read from the still-answering source
	// (planned drain) from the periodic-snapshot fallback (dead node).
	Live bool
	// SnapshotAge is how stale the fallback capture was (0 when live).
	SnapshotAge sim.Time
	// Flows entries were carried; Restored made it into the new table;
	// Dropped exceeded its capacity.
	Flows, Restored, Dropped int

	// Rebalance-move accounting: the per-phase timestamps (zero when the
	// phase never ran — failover migrations only stamp CutoverAt) and row
	// split make any migration auditable from the record alone.
	// PlannedAt is when the move was planned, PreCopyAt when the
	// pre-copy snapshot was captured, DeltaAt when the dirty log was
	// replayed, CutoverAt when routing flipped (== At for failovers).
	PlannedAt, PreCopyAt, DeltaAt, CutoverAt sim.Time
	// PreCopyRows came over in the pre-copy stream, DeltaRows in the
	// delta replay; Retries counts failed phase attempts that were
	// retried; Aborted marks a move rolled back to the source.
	PreCopyRows, DeltaRows, Retries int
	Aborted                         bool
}

// Migrations returns every completed flow-table migration.
func (c *Cluster) Migrations() []MigrationRecord {
	return append([]MigrationRecord(nil), c.migrations...)
}

// flowsForMigration obtains the connection table to carry for one
// evacuating replica: the live table when the node still answers
// commands, else the last periodic capture (none, if never captured).
func (c *Cluster) flowsForMigration(n *Node, r *Replica, live bool) (entries []apps.ConnEntry, gotLive bool, at sim.Time) {
	if !c.cfg.MigrateFlows || r.flows == nil {
		return nil, false, 0
	}
	if live {
		if e, err := c.readFlowSnapshot(n, r, nil); err == nil {
			return e, true, 0
		}
	}
	return r.snap.entries, false, r.snap.at
}

// RemoveBackend removes one backend from a stateful service's pool,
// fleet-wide: the shared Maglev table rebuilds (minimal disruption for
// unpinned flows) and every replica either keeps pins to the leaving
// backend (planned drain, evict=false — connections complete) or
// evicts them (backend failure, evict=true — pins would blackhole).
// It reports how many pinned flows were evicted.
func (c *Cluster) RemoveBackend(service string, backend net.IPAddr, evict bool) (int, error) {
	svc, ok := c.services[service]
	if !ok {
		return 0, fmt.Errorf("fleet: unknown service %q", service)
	}
	if !svc.Stateful {
		return 0, fmt.Errorf("fleet: service %q is not stateful", service)
	}
	found := -1
	for i, b := range svc.Backends {
		if b == backend {
			found = i
			break
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("fleet: %v is not a backend of %s", backend, service)
	}
	if len(svc.Backends) == 1 {
		return 0, fmt.Errorf("fleet: cannot remove the last backend of %s", service)
	}
	svc.Backends = append(svc.Backends[:found], svc.Backends[found+1:]...)
	pool, err := apps.NewMaglev(svc.Backends)
	if err != nil {
		return 0, err
	}
	svc.pool = pool
	evicted := 0
	if evict {
		for _, r := range c.replicas {
			if r.Service == service && r.flows != nil {
				evicted += r.flows.table.EvictBackend(backend)
			}
		}
	}
	return evicted, nil
}

// MigrationCase is one side of the migration drill: a failover with or
// without carrying connection tables.
type MigrationCase struct {
	Migrated bool `json:"migrated"`
	// Established counts the victim's pinned flows at the kill;
	// Disrupted of those land on a different backend after failover.
	Established int     `json:"established_flows"`
	Disrupted   int     `json:"disrupted_flows"`
	Disruption  float64 `json:"disruption"`
	// FlowsCarried counts table entries replayed into replacements.
	FlowsCarried int      `json:"flows_carried"`
	RecoveryTime sim.Time `json:"recovery_ps"`
}

// migrateDevices is the fleet4 drill size: big enough for real
// failover choices, small enough for CI's bench-smoke job.
const migrateDevices = 3

// MigrationDrillResult reports the fleet4 drill — the same
// deterministic failover run cold and with migration, against the
// consistent-hashing disruption bound — and is the machine-readable
// artifact (BENCH_migrate.json), gates included.
type MigrationDrillResult struct {
	Experiment string `json:"experiment"` // always "fleet4"
	App        string `json:"app"`
	Devices    int    `json:"devices"`
	Backends   int    `json:"backends"`
	Killed     string `json:"killed"`
	// MaglevBound is the pool-change disruption floor: the fraction of
	// the hash table the mid-run backend drain remapped. A cold restart
	// re-hashes established flows at this rate; migration must beat it.
	MaglevBound float64       `json:"maglev_bound"`
	Cold        MigrationCase `json:"cold"`
	Migrated    MigrationCase `json:"migrated"`

	// The acceptance gates: the migrated failover disrupted strictly
	// fewer flows than the cold one, and no more than the pool change
	// itself forced.
	StrictlyFewer bool `json:"strictly_fewer"`
	WithinBound   bool `json:"within_bound"`

	// Repro rebuilds this report; the fleet4 artifact does not carry it.
	Repro string `json:"-"`

	// Records are the migrated case's flow-table migrations.
	Records []MigrationRecord `json:"-"`
}

// Failures names every fleet4 gate that did not hold.
func (r *MigrationDrillResult) Failures() []string {
	return failedGates(
		gate{"strictly_fewer", r.StrictlyFewer},
		gate{"within_bound", r.WithinBound},
	)
}

// runMigrationCase builds a stateful fleet, establishes flows, drains
// one backend (so the pool at failover differs from the pool the flows
// pinned under — the condition that makes a cold restart disruptive),
// kills the most loaded node and measures how many established flows
// changed backend.
func runMigrationCase(migrate bool) (*MigrationCase, *Cluster, string, float64, error) {
	cfg := DefaultConfig()
	cfg.MigrateFlows = migrate
	// The drill's serving phases are short relative to the heartbeat, so
	// snapshot on every other probe — with the production cadence the
	// victim could die before its first post-traffic capture.
	cfg.SnapshotEvery = 2
	svc, err := drillService(chaosApp, migrateDevices, net.IPv4(20, 0, 0, 1), migrationPool)
	if err != nil {
		return nil, nil, "", 0, err
	}
	c, err := BuildCoResidentCluster(cfg, []Service{svc}, migrateDevices)
	if err != nil {
		return nil, nil, "", 0, err
	}
	c.RunMonitorUntil(cfg.ReconfigTime * 2)

	// Establish flows across the fleet.
	t := DefaultTraffic(chaosApp)
	if _, err := c.Serve(300*sim.Microsecond, t); err != nil {
		return nil, nil, "", 0, err
	}

	// Drain one backend: unpinned flows re-hash minimally, established
	// flows keep their pins. From here the pool disagrees with the pins.
	oldPool := c.services[svc.Name].pool
	if _, err := c.RemoveBackend(svc.Name, backends(migrationPool)[0], false); err != nil {
		return nil, nil, "", 0, err
	}
	bound := oldPool.Disruption(c.services[svc.Name].pool)

	// Kill the most loaded node — the same victim in both cases, since
	// both run the same seeds — and serve through detection and
	// re-placement.
	victim := mostLoaded(c)
	established := flowPins(victim.Replicas())
	faultAt, report, err := c.killAndDetect(victim, t)
	if err != nil {
		return nil, nil, "", 0, err
	}

	// Measure: where does each of the victim's established flows land
	// on its replacement replica now?
	byName := map[string]*Replica{}
	for _, r := range c.replicas {
		byName[r.Name()] = r
	}
	mc := &MigrationCase{Migrated: migrate, RecoveryTime: report.Recovery(faultAt), FlowsCarried: report.Migrated}
	for name, entries := range established {
		r := byName[name]
		if r == nil || r.Node == "" || r.flows == nil {
			return nil, nil, "", 0, fmt.Errorf("fleet: %s was not re-placed", name)
		}
		mc.Established += len(entries)
		mc.Disrupted += disrupted(r, entries)
	}
	mc.Disruption = ratio(mc.Disrupted, mc.Established, 0)
	return mc, c, victim.ID, bound, nil
}

// MigrationDrill runs the fleet4 experiment on a migrateDevices-node
// stateful layer-4 LB fleet: the identical seeded failover twice — cold
// (connection tables die with the node) and with live migration — and
// judges each side's flow disruption against the Maglev re-hash bound.
func MigrationDrill() (*MigrationDrillResult, error) {
	cold, _, killedCold, bound, err := runMigrationCase(false)
	if err != nil {
		return nil, err
	}
	mig, c, killed, _, err := runMigrationCase(true)
	if err != nil {
		return nil, err
	}
	if killed != killedCold {
		return nil, fmt.Errorf("fleet: drill cases diverged (%s vs %s killed)", killedCold, killed)
	}
	return &MigrationDrillResult{
		Experiment: "fleet4", App: chaosApp,
		Devices: migrateDevices, Backends: len(backends(migrationPool)), Killed: killed,
		MaglevBound: bound,
		Cold:        *cold, Migrated: *mig,
		StrictlyFewer: mig.Disrupted < cold.Disrupted,
		WithinBound:   mig.Disruption <= bound,
		Repro:         "go run ./cmd/harmonia-fleet -scenario migrate",
		Records:       c.Migrations(),
	}, nil
}
