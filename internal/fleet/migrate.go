package fleet

import (
	"fmt"
	"sort"

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
	c       *Cluster
	service string
	table   *apps.FlowTable
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

func (fs *flowState) pool() *apps.Maglev { return fs.c.pools[fs.service] }

// process records one routed packet: established flows hit their pin,
// new flows pin to the pool's current assignment.
func (fs *flowState) process(k net.FlowKey) {
	if _, ok := fs.table.Lookup(k); ok {
		return
	}
	b := fs.pool().Lookup(k)
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
	return fs.pool().Lookup(k)
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

// attachFlowState creates a replica's flow state on its new node and
// binds it to the role control module, making the connection table
// reachable over the command path. No-op for stateless services.
func (c *Cluster) attachFlowState(n *Node, r *Replica) {
	svc := c.services[r.Service]
	if !svc.Stateful {
		return
	}
	m, ok := n.Inst.Kernel().Module(device.RBBRole, 0)
	if !ok {
		return
	}
	fs := &flowState{c: c, service: r.Service, table: apps.NewFlowTable(flowTableCap)}
	tid := flowTableID(r)
	m.SetTableSource(tid, fs.exportRow)
	m.SetTableSink(tid, fs.importRow)
	n.flows[r.Name()] = fs
	r.flows = fs
}

// detachFlowState unbinds a replica's flow state from its node's role
// module (eviction, failover). The replica keeps its fs pointer only
// until the next attach.
func (c *Cluster) detachFlowState(n *Node, r *Replica) {
	if _, ok := n.flows[r.Name()]; !ok {
		return
	}
	if m, ok := n.Inst.Kernel().Module(device.RBBRole, 0); ok {
		tid := flowTableID(r)
		m.SetTableSource(tid, nil)
		m.SetTableSink(tid, nil)
	}
	delete(n.flows, r.Name())
}

// readFlowSnapshot pulls a replica's connection table off its device
// through TableRead transactions: row 0 carries the framed header
// declaring the stream length, later rows follow until complete.
func (c *Cluster) readFlowSnapshot(n *Node, r *Replica) ([]apps.ConnEntry, error) {
	tid := flowTableID(r)
	words, err := n.Inst.ReadTable(device.RBBRole, 0, tid, 0)
	if err != nil {
		return nil, err
	}
	total, err := apps.FlowSnapshotWords(words)
	if err != nil {
		return nil, err
	}
	words = append(c.tableWords[:0], words...)
	for row := uint32(1); len(words) < total; row++ {
		next, err := n.Inst.ReadTable(device.RBBRole, 0, tid, row)
		if err != nil {
			return nil, err
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("fleet: flow snapshot truncated at row %d", row)
		}
		words = append(words, next...)
	}
	c.tableWords = words
	if len(words) > total {
		return nil, fmt.Errorf("fleet: flow snapshot overran framed length %d", total)
	}
	return apps.DecodeFlowSnapshot(words)
}

// writeFlowSnapshot replays a connection table into a replica through
// TableWrite transactions against its new node's role module.
func (c *Cluster) writeFlowSnapshot(n *Node, r *Replica, entries []apps.ConnEntry) error {
	tid := flowTableID(r)
	for i, row := range cmdif.SplitRows(apps.EncodeFlowSnapshot(entries)) {
		if err := n.Inst.WriteTable(device.RBBRole, 0, tid, uint32(i), row...); err != nil {
			return err
		}
	}
	return nil
}

// flowSnap is one periodic connection-table capture.
type flowSnap struct {
	at      sim.Time
	entries []apps.ConnEntry
}

// snapshotNode refreshes the periodic captures of every stateful
// replica on a live node, over the command path. Called from the
// heartbeat sweep; a node that stops answering commands keeps its last
// successful capture — that staleness is exactly what dead-node
// failover inherits.
func (c *Cluster) snapshotNode(now sim.Time, n *Node) {
	for _, r := range n.Replicas() {
		if r.flows == nil {
			continue
		}
		entries, err := c.readFlowSnapshot(n, r)
		if err != nil {
			continue
		}
		c.snapshots[r.Name()] = flowSnap{at: now, entries: entries}
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
// commands, else the last periodic capture.
func (c *Cluster) flowsForMigration(n *Node, r *Replica, live bool) (entries []apps.ConnEntry, gotLive bool, at sim.Time) {
	if !c.cfg.MigrateFlows || r.flows == nil {
		return nil, false, 0
	}
	if live {
		if e, err := c.readFlowSnapshot(n, r); err == nil {
			return e, true, 0
		}
	}
	if snap, ok := c.snapshots[r.Name()]; ok {
		return snap.entries, false, snap.at
	}
	return nil, false, 0
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
	c.pools[service] = pool
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
	Migrated bool
	// Established counts the victim's pinned flows at the kill;
	// Disrupted of those land on a different backend after failover.
	Established, Disrupted int
	Disruption             float64
	// FlowsCarried counts table entries replayed into replacements.
	FlowsCarried int
	RecoveryTime sim.Time
}

// MigrationDrillResult reports the fleet4 drill: the same deterministic
// failover run cold and with migration, against the consistent-hashing
// disruption bound.
type MigrationDrillResult struct {
	Devices  int
	Backends int
	Killed   string
	// MaglevBound is the pool-change disruption floor: the fraction of
	// the hash table the mid-run backend drain remapped. A cold restart
	// re-hashes established flows at this rate; migration must beat it.
	MaglevBound    float64
	Cold, Migrated MigrationCase
	Records        []MigrationRecord
	Transitions    []Transition
}

// migrationBackends is the drill's initial backend pool.
func migrationBackends() []net.IPAddr {
	out := make([]net.IPAddr, 8)
	for i := range out {
		out[i] = net.IPv4(10, 1, 0, byte(i+1))
	}
	return out
}

// runMigrationCase builds a stateful fleet, establishes flows, drains
// one backend (so the pool at failover differs from the pool the flows
// pinned under — the condition that makes a cold restart disruptive),
// kills the most loaded node and measures how many established flows
// changed backend.
func runMigrationCase(cfg Config, n int, t Traffic, migrate bool) (*MigrationCase, *Cluster, string, float64, error) {
	cfg.MigrateFlows = migrate
	// The drill's serving phases are short relative to the heartbeat, so
	// snapshot on every other probe — with the production cadence the
	// victim could die before its first post-traffic capture.
	cfg.SnapshotEvery = 2
	info, err := apps.Lookup("layer4-lb")
	if err != nil {
		return nil, nil, "", 0, err
	}
	svc := AppService(info, n, net.IPv4(20, 0, 0, 1))
	svc.Stateful = true
	svc.Backends = migrationBackends()
	c, err := BuildServiceCluster(cfg, svc, n)
	if err != nil {
		return nil, nil, "", 0, err
	}
	c.RunMonitorUntil(cfg.ReconfigTime * 2)

	// Establish flows across the fleet.
	if _, err := c.Serve(300*sim.Microsecond, t); err != nil {
		return nil, nil, "", 0, err
	}

	// Drain one backend: unpinned flows re-hash minimally, established
	// flows keep their pins. From here the pool disagrees with the pins.
	oldPool := c.pools[svc.Name]
	if _, err := c.RemoveBackend(svc.Name, migrationBackends()[0], false); err != nil {
		return nil, nil, "", 0, err
	}
	bound := oldPool.Disruption(c.pools[svc.Name])

	// Kill the most loaded node (lowest ID breaks ties) — the same
	// victim in both cases, since both run the same seeds.
	nodes := c.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		if li, lj := len(nodes[i].replicas), len(nodes[j].replicas); li != lj {
			return li > lj
		}
		return nodes[i].ID < nodes[j].ID
	})
	victim := nodes[0]
	established := map[string][]apps.ConnEntry{}
	for _, r := range victim.Replicas() {
		if r.flows != nil {
			established[r.Name()] = r.flows.table.Snapshot()
		}
	}
	faultAt := c.Now()
	if err := c.Kill(victim.ID); err != nil {
		return nil, nil, "", 0, err
	}

	// Serve through detection and re-placement.
	cohorts := cfg.HeartbeatCohorts
	if cohorts < 1 {
		cohorts = 1
	}
	detectBudget := sim.Time((cfg.FailedAfter+2)*cohorts)*cfg.Heartbeat + 2*cfg.ReconfigTime
	mid := t
	mid.Seed = t.Seed + 100
	if _, err := c.Serve(detectBudget, mid); err != nil {
		return nil, nil, "", 0, err
	}
	var report *FailoverReport
	for i := range c.failovers {
		if c.failovers[i].Node == victim.ID {
			report = &c.failovers[i]
			break
		}
	}
	if report == nil {
		return nil, nil, "", 0, fmt.Errorf("fleet: %s was never declared failed", victim.ID)
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
		for _, e := range entries {
			mc.Established++
			if r.flows.assignment(e.Key) != e.Backend {
				mc.Disrupted++
			}
		}
	}
	if mc.Established > 0 {
		mc.Disruption = float64(mc.Disrupted) / float64(mc.Established)
	}
	return mc, c, victim.ID, bound, nil
}

// MigrationDrill runs the fleet4 experiment: the identical seeded
// failover twice — cold (connection tables die with the node) and with
// live migration — and reports each side's flow disruption against the
// Maglev re-hash bound.
func MigrationDrill(cfg Config, n int, t Traffic) (*MigrationDrillResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("fleet: migration drill needs at least 2 devices, got %d", n)
	}
	cold, _, killedCold, bound, err := runMigrationCase(cfg, n, t, false)
	if err != nil {
		return nil, err
	}
	mig, c, killed, _, err := runMigrationCase(cfg, n, t, true)
	if err != nil {
		return nil, err
	}
	if killed != killedCold {
		return nil, fmt.Errorf("fleet: drill cases diverged (%s vs %s killed)", killedCold, killed)
	}
	return &MigrationDrillResult{
		Devices: n, Backends: len(migrationBackends()), Killed: killed,
		MaglevBound: bound,
		Cold:        *cold, Migrated: *mig,
		Records:     c.Migrations(),
		Transitions: c.Transitions(),
	}, nil
}
