// Package fleet is the cluster control plane over a pool of simulated
// Harmonia devices: the multi-device layer the paper's cloud setting
// implies (§2.3, Fig. 3c) but a single-device twin cannot exercise.
//
// A Cluster commissions heterogeneous catalog devices by running the
// real toolchain pipeline (unified shell, tailoring, dependency
// inspection, compile, boot) per device, places service replicas into
// tenancy partial-reconfiguration slots using the structural resource
// model, heartbeats every device over the command path, consumes irq
// thermal-alarm/link-down events, and routes live workload across the
// replicas with per-device queue-depth awareness. Devices move through
// the state machine healthy → degraded → failed → drained; losing a
// device evicts its tenants, re-places them on survivors and re-routes
// traffic, with the recovery time measured in simulated time.
package fleet

import (
	"fmt"
	"sort"

	"harmonia/internal/apps"
	"harmonia/internal/device"
	"harmonia/internal/gossip"
	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/role"
	"harmonia/internal/shell"
	"harmonia/internal/sim"
	"harmonia/internal/tenancy"
	"harmonia/internal/toolchain"
	"harmonia/internal/workload"
)

// State is a device's position in the fleet health state machine.
type State string

// Device states. Healthy devices take new placements and traffic;
// degraded devices keep serving but are deprioritized by the router and
// excluded from new placements; failed devices are dead to the command
// path; drained devices have been fully evacuated.
const (
	Healthy  State = "healthy"
	Degraded State = "degraded"
	Failed   State = "failed"
	Drained  State = "drained"
)

// Config shapes the control plane.
type Config struct {
	// Heartbeat is the health monitor's sampling interval.
	Heartbeat sim.Time
	// FailedAfter is how many consecutive missed heartbeats declare a
	// device failed.
	FailedAfter int
	// DegradeMilliC is the die temperature (milli-degC) at which a
	// device is degraded; it also arms each device's thermal watchdog.
	DegradeMilliC uint32
	// SlotRes is the per-slot resource budget of the role region's
	// partial-reconfiguration layout (URAM is folded into BRAM on chips
	// without UltraRAM).
	SlotRes hdl.Resources
	// ReconfigTime is the partial-bitstream load time per slot — the
	// dominant term of failover recovery.
	ReconfigTime sim.Time
	// Seed drives the router's randomized two-choice sampling.
	Seed int64
	// RouterShards partitions dispatch state (RNG, counters, latency
	// window) and the node set into this many shards; flows hash onto
	// shards and Serve routes shards in parallel. 0 picks one shard per
	// 64 nodes (capped at 16) when routing first runs. Seeded results
	// depend on the shard count but not on the worker count.
	RouterShards int
	// HeartbeatCohorts splits the fleet into this many round-robin
	// heartbeat cohorts: each monitor tick probes one cohort, so probe
	// cost per tick is N/cohorts while a silent device is still
	// declared failed after FailedAfter consecutive missed probes —
	// within FailedAfter*cohorts*Heartbeat. 0 or 1 probes every node
	// each tick.
	HeartbeatCohorts int
	// ServeWorkers caps the goroutines Serve fans shards out to, and
	// the goroutines a heartbeat barrier runs its device probes and
	// connection-table captures on (probe.go). 0 uses GOMAXPROCS. The
	// worker count never changes results.
	ServeWorkers int
	// BatchQuantum caps how many packets one dispatch run drains
	// between control-plane barriers before Serve re-partitions
	// (0 = 8192). No control-plane work runs at a quantum split and the
	// flow caches survive it, so seeded results are identical for every
	// quantum size — the knob only shapes working-set locality.
	BatchQuantum int
	// MigrateFlows carries stateful services' connection tables across
	// failover: planned drains read the live table over the command
	// path, dead-node failover falls back to the last periodic
	// snapshot, and either replays into the replacement replica.
	MigrateFlows bool
	// SnapshotEvery is the periodic connection-table snapshot cadence,
	// in successful heartbeat probes per node (0 = every 8th probe).
	SnapshotEvery int
	// Racks groups the fleet into this many contiguous racks — the
	// per-rack metrics domain (and, with RackP2C, the dispatch tier).
	// 0 picks one rack per 64 nodes. Without RackP2C the rack count
	// never changes results: the tier is observational and dispatch
	// stays on the flat sharded path.
	Racks int
	// RackP2C enables rack-first dispatch: the router's shard layout
	// nests in the racks (one shard per contiguous rack) and each
	// packet two-choices between two hash-derived racks on their
	// barrier-frozen backlog digests before the in-rack two-choice
	// runs. Per-packet cost stops scaling with the fleet size; seeded
	// results depend on the rack count (as they already do on the shard
	// count) but never on the worker count. Incompatible with an
	// explicit RouterShards setting.
	RackP2C bool
	// GossipHealth replaces the central heartbeat sweep with the
	// SWIM-style gossip detector (internal/gossip): each monitor tick
	// directly probes a seeded rotation of GossipFanout nodes and
	// piggybacks peer liveness digests on the answers, so probe cost
	// per tick is O(fanout) instead of O(N) while a silent node is
	// still declared failed only after FailedAfter consecutive missed
	// command-path probes — within GossipDetectionBound.
	GossipHealth bool
	// GossipFanout is the per-tick direct probe count (0 = 8).
	GossipFanout int
	// GossipPiggyback is how many peer liveness observations each
	// answered probe carries back (0 = 4).
	GossipPiggyback int
	// Rebalance arms the background rebalancer: at heartbeat barriers it
	// scores fragmentation (stranded queue ranges, slot imbalance,
	// placement drift), drains the worst node through crash-safe
	// pre-copy + delta-replay moves, and rebuilds its queue allocator.
	// SetRebalance toggles it at runtime.
	Rebalance bool
	// DerivedShedding replaces the static ×4 degraded-node routing
	// penalty with one derived from thermal margin: cost scales with
	// the die's modeled throttling as temperature erodes the margin to
	// DegradeMilliC, and an alarmed (degraded) node takes no traffic.
	DerivedShedding bool
	// ShedStartMilliC is where the derived penalty starts growing
	// (0 = DegradeMilliC − 10°C).
	ShedStartMilliC uint32
	// SLOWindowTicks sizes the per-service SLO error-budget windows in
	// heartbeat ticks, fast to slow (nil = {4, 16, 64, 256}). Burn
	// rules pair the first two windows (page) and the last two
	// (ticket). Windows advance only at heartbeat barriers, so SLO
	// state never depends on worker count or batch quantum.
	SLOWindowTicks []int
}

// Per-device tenancy settings every fleet shares.
const (
	// maxSlots caps slots per device; the structural headroom of the
	// chip may support fewer.
	maxSlots = 4
	// queuesPerTenant is each tenant's host-queue allocation.
	queuesPerTenant = 64
	// loadRetries bounds per-slot retries of a failed bitstream load
	// before placement falls back to another device.
	loadRetries = 2
	// loadBackoff is the delay before the first load retry, doubling
	// per attempt.
	loadBackoff = 250 * sim.Microsecond
)

// DefaultConfig returns production-shaped control plane settings.
func DefaultConfig() Config {
	return Config{
		Heartbeat:     50 * sim.Microsecond,
		FailedAfter:   3,
		DegradeMilliC: 95_000,
		SlotRes:       hdl.Resources{LUT: 160_000, REG: 240_000, BRAM: 420, URAM: 64, DSP: 1_024},
		ReconfigTime:  2 * sim.Millisecond,
		Seed:          1,
		MigrateFlows:  true,
		SnapshotEvery: defaultSnapshotEvery,
	}
}

// ServiceClass ranks a service's latency sensitivity. The class drives
// the shedding order on thermally eroded nodes (bulk traffic sheds
// first, latency-critical last; thermal.go) — not the PR-load priority
// class, which is per load (failover vs elective; budget.go).
type ServiceClass string

const (
	// ClassLatencyCritical services keep serving until the node itself
	// degrades; the default class.
	ClassLatencyCritical ServiceClass = "latency-critical"
	// ClassBulk services are shed from a node once its thermal throttle
	// crosses the bulk-shed floor, returning headroom to co-resident
	// latency-critical traffic.
	ClassBulk ServiceClass = "bulk"
)

// SLO is a service's per-service objective, evaluated by drills (the
// control plane enforces the shedding *order*; the targets themselves
// are gate inputs, not admission inputs).
type SLO struct {
	// P99 is the target 99th-percentile serve latency (0 = none).
	P99 sim.Time
	// Availability is the target served/sent ratio (0 = none).
	Availability float64
}

// Service is a replicated workload the fleet hosts.
type Service struct {
	Name string
	// Class ranks latency sensitivity ("" = latency-critical); SLO holds
	// the per-service targets drills gate on.
	Class ServiceClass
	SLO   SLO
	// Demands is the role's shell requirement (adapted per device at
	// commission time: HBM falls back to DDR4 on HBM-less cards).
	Demands shell.Demands
	// Logic is one replica's resource footprint; it must fit a slot.
	Logic hdl.Resources
	// Replicas is the target replica count.
	Replicas int
	// MinPCIeGen excludes devices below this host-link generation
	// (0 = any).
	MinPCIeGen int
	// VIPBase is the first replica's virtual IP; replica i serves
	// VIPBase+i.
	VIPBase net.IPAddr
	// Stateful marks a service whose replicas pin flows to backends in
	// a per-replica connection table (the layer-4 LB pattern). Stateful
	// services are what flow migration protects; Backends is their
	// initial pool.
	Stateful bool
	Backends []net.IPAddr
}

// service is the cluster's own record of a registered Service: its
// registration index (which indexes every per-node tally), the
// stateful backend pool, its part of the replica index with its
// dispatch counters, and the SLO engine's per-service state.
type service struct {
	Service
	idx int
	// pool is the shared backend hash table (stateful services only).
	pool *apps.Maglev
	// svcIndex is the service's ready replicas, dispatch views and
	// counters per router shard (index.go). Between barriers shard s's
	// worker is the one writer of disp[s] and stats[s], each its own
	// slice element; the ready lists and active set change only on the
	// serial control-plane path.
	svcIndex
	// slo is the error-budget tracker; prev the counters seen at the
	// last barrier; lastMilli the last traced burn rate per window,
	// quantized to milli-burn, so the slo track records changes rather
	// than every barrier (slo.go). Only the serial barrier writes them.
	slo       *obs.SLOTracker
	prev      ServiceSnapshot
	lastMilli []int64
	// materialized is set once Place has created the service's replicas
	// [0, Replicas) as of that call; ScaleService creates each replica it
	// adds from then on (placement.go).
	materialized bool
}

// AppService derives a fleet service from an application catalog entry.
func AppService(info apps.Info, replicas int, vipBase net.IPAddr) Service {
	return Service{
		Name:     info.Name,
		Demands:  info.Demands,
		Logic:    info.RoleRes,
		Replicas: replicas,
		VIPBase:  vipBase,
	}
}

// Replica is one placed instance of a service.
type Replica struct {
	Service string
	Index   int
	VIP     net.IPAddr
	// Node is the hosting device ("" while unplaced).
	Node string
	// Tenant is the tenancy ID on the hosting device.
	Tenant int
	// ReadyAt is when the replica's slot reconfiguration completes.
	ReadyAt sim.Time
	// svc is the replica's registered service; node caches the hosting
	// *Node (nil while unplaced) so the per-packet dispatch path never
	// takes the byID map lookup.
	svc  *service
	node *Node
	// flows is the replica's stateful LB state (nil for stateless
	// services), bound to the hosting device's role control module; snap
	// is its last periodic capture (zero until the first one).
	flows *flowState
	snap  flowSnap
	// elective marks a scale-out replica still waiting on the elective
	// queue for budget headroom; Place skips it (placement.go).
	elective bool
	name     string // Name, built once at creation
}

// newReplica creates replica index of a service, serving VIPBase+index.
func newReplica(svc *service, index int) *Replica {
	vip := svc.VIPBase
	vip[3] += byte(index)
	return &Replica{Service: svc.Name, Index: index, VIP: vip, svc: svc, name: fmt.Sprintf("%s/%d", svc.Name, index)}
}

// Name identifies the replica, e.g. "layer4-lb/2".
func (r *Replica) Name() string { return r.name }

// Node is one commissioned device under fleet control.
type Node struct {
	ID       string
	Platform *platform.Device
	// Project is the consolidated build deployed on the device.
	Project *toolchain.Project
	// Inst is the booted instance the health monitor commands.
	Inst *device.Device
	// Net and Host are the functional datapath RBBs traffic crosses.
	Net  *rbb.NetworkRBB
	Host *rbb.HostRBB
	// Tenants multiplexes replicas over the role region's PR slots
	// (nil when the chip has no headroom for any slot).
	Tenants *tenancy.Manager

	// slotRes is the per-slot budget after URAM folding for this chip.
	slotRes hdl.Resources
	slots   int
	state   State
	missed  int
	// lastTemp is the most recent heartbeat temperature (milli-degC).
	lastTemp uint32
	killed   bool
	// probes counts successful heartbeat probes, pacing the periodic
	// connection-table snapshots.
	probes int64
	// busyUntil is the datapath backlog horizon used for queue-depth
	// aware routing.
	busyUntil sim.Time
	// classServed counts served packets by service class
	// ([0] latency-critical, [1] bulk), written by the owning shard's
	// worker like busyUntil — the per-node shed-order evidence.
	classServed [2]int64
	replicas    map[string]*Replica
	// svcCounts tracks replicas per service (anti-affinity input),
	// maintained by bind and unbind so placement never iterates
	// replicas; fits holds the static placement fit per service (see
	// staticFit). Both are indexed by the service's registration index.
	svcCounts []int
	fits      []bool
	// stateful lists the replicas whose connection tables are bound to
	// this node's role module, in name order: the order the barrier
	// captures them in.
	stateful []*Replica
	// shard is the router shard owning this node's dispatch state
	// (assigned when the router freezes its shard layout).
	shard int
	// hotEpoch/hotSlot place the node in its shard's SoA hot-state
	// slice for the given dispatch epoch (router.go: refreshDisp). Only
	// the owning shard's worker touches them, so replicas of different
	// services sharing a node share one backlog mirror without locks.
	hotEpoch uint64
	hotSlot  int32
	// rack is the node's rack (assigned at the same freeze); index is
	// the commission order position — the gossip member id.
	rack  int
	index int
	// rebuilding marks a node the rebalancer is draining for a queue
	// rebuild: it keeps serving its current replicas but takes no new
	// placements until the rebuild completes.
	rebuilding bool
}

// State reports the node's health state.
func (n *Node) State() State { return n.state }

// LastTemp reports the most recent heartbeat temperature (milli-degC).
func (n *Node) LastTemp() uint32 { return n.lastTemp }

// ClassServed reports the node's served-packet counts by service class.
// Read between serve phases (the counters are shard-owned mid-phase).
func (n *Node) ClassServed() (latencyCritical, bulk int64) {
	return n.classServed[0], n.classServed[1]
}

// QueueDepth reports the node's outstanding datapath backlog at now —
// the per-device congestion signal the router balances on.
func (n *Node) QueueDepth(now sim.Time) sim.Time {
	if n.busyUntil <= now {
		return 0
	}
	return n.busyUntil - now
}

// Replicas lists the replicas currently placed on the node, sorted by
// name for stable output.
func (n *Node) Replicas() []*Replica {
	out := make([]*Replica, 0, len(n.replicas))
	for _, r := range n.replicas {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Cluster is the fleet control plane.
type Cluster struct {
	cfg Config
	// services holds the registered services by name, svcOrder the same
	// records in registration order (svcOrder[i].idx == i).
	services map[string]*service
	svcOrder []*service
	nodes    []*Node
	byID     map[string]*Node
	replicas []*Replica
	// migrations are the completed flow-table transfers.
	migrations []MigrationRecord
	// tables holds the flow-table read buffers, one pair per heartbeat
	// probe worker (migrate.go: tableBufs). tables[0] is the caller's:
	// the probe stage's first worker and every serial reader (live
	// drains, moves, failover reads) use it; a worker lends its pair to
	// each table it captures. stage is the barrier's probe stage
	// (probe.go).
	tables []tableBufs
	stage  probeStage
	// spare is the workload storage the last phase to run handed back,
	// taken by the next prepare; gen is the seeded stream generator
	// every prepare reuses; flowHash memoizes the flow hash of each
	// generated flow index (scenario.go).
	spare    *phaseBufs
	gen      workload.Gen
	flowHash []uint64

	now           sim.Time
	nextHeartbeat sim.Time
	hbTick        int64
	transitions   []Transition
	failovers     []FailoverReport
	router        *router
	// racks is the rack tier (frozen alongside the router's shard
	// layout); gossip is the SWIM detector, built lazily on the first
	// gossip-mode heartbeat; gossipEvents is its fleet-level event log.
	racks        *rackTier
	gossip       *gossip.Group
	gossipEvents []GossipEvent
	// budget is the fleet-wide concurrent PR-load cap and its grant log;
	// electives are scale-out replicas queued for free headroom, drained
	// oldest-first at heartbeat barriers (placement.go).
	budget    *reconfigBudget
	electives []electiveEntry
	// prLoadFault, when set, decides per-attempt bitstream load failures
	// on every node (chaos injection).
	prLoadFault func(node, tenant string, slot, attempt int) bool
	// rebalance is the background rebalancer's barrier-stepped state
	// (rebalance.go); nil until the first enable.
	rebalance *rebalancer
	// slo is the always-on SLO error-budget engine, advanced at
	// heartbeat barriers (slo.go).
	slo *sloEngine

	// reg is the cluster's metrics registry: every layer registers
	// read-through callbacks over its public stats accessors at
	// construction.
	reg *obs.Registry
	// tp is the attached trace process (nil when tracing is off); ctrl
	// and cmdTrack are its control-plane and command-path tracks.
	ctrl     *obs.Buffer
	cmdTrack *obs.Buffer
	tp       *obs.Process
}

// NewCluster returns an empty control plane.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Heartbeat <= 0 || cfg.FailedAfter <= 0 || cfg.ReconfigTime <= 0 ||
		cfg.RouterShards < 0 || cfg.HeartbeatCohorts < 0 || cfg.ServeWorkers < 0 ||
		cfg.BatchQuantum < 0 || cfg.SnapshotEvery < 0 ||
		cfg.Racks < 0 || cfg.GossipFanout < 0 || cfg.GossipPiggyback < 0 {
		return nil, fmt.Errorf("fleet: invalid config %+v", cfg)
	}
	if cfg.ShedStartMilliC > 0 && cfg.ShedStartMilliC >= cfg.DegradeMilliC {
		return nil, fmt.Errorf("fleet: shed start %d must be below the %d alarm threshold",
			cfg.ShedStartMilliC, cfg.DegradeMilliC)
	}
	if cfg.RackP2C && cfg.RouterShards > 0 {
		return nil, fmt.Errorf("fleet: RackP2C nests the shard layout in the racks; RouterShards must be 0")
	}
	for _, t := range cfg.SLOWindowTicks {
		if t <= 0 {
			return nil, fmt.Errorf("fleet: SLO window of %d ticks", t)
		}
	}
	c := &Cluster{
		cfg:      cfg,
		services: make(map[string]*service),
		byID:     make(map[string]*Node),
		tables:   make([]tableBufs, 1),
	}
	c.router = newRouter(c, cfg.Seed)
	c.racks = &rackTier{c: c}
	c.budget = &reconfigBudget{} // unlimited until SetLoadBudget
	c.slo = newSLOEngine(cfg)
	c.reg = obs.NewRegistry()
	c.registerMetrics()
	if cfg.Rebalance {
		c.SetRebalance(true)
	}
	return c, nil
}

// Config returns the control plane settings.
func (c *Cluster) Config() Config { return c.cfg }

// Now reports the cluster's current simulated time.
func (c *Cluster) Now() sim.Time { return c.now }

// advance moves cluster time monotonically forward.
func (c *Cluster) advance(now sim.Time) {
	if now > c.now {
		c.now = now
	}
}

// AddService registers a service before placement. Devices already
// commissioned keep their shells (their per-service tallies grow by
// one); register services first so merged demands shape every
// deployment.
func (c *Cluster) AddService(s Service) error {
	if s.Name == "" || s.Replicas <= 0 {
		return fmt.Errorf("fleet: invalid service %+v", s)
	}
	if _, dup := c.services[s.Name]; dup {
		return fmt.Errorf("fleet: service %q already registered", s.Name)
	}
	switch s.Class {
	case "", ClassLatencyCritical, ClassBulk:
	default:
		return fmt.Errorf("fleet: service %q has unknown class %q", s.Name, s.Class)
	}
	svc := &service{Service: s, idx: len(c.svcOrder)}
	if svc.Class == "" {
		svc.Class = ClassLatencyCritical
	}
	if svc.Stateful {
		if len(svc.Backends) == 0 {
			return fmt.Errorf("fleet: stateful service %q needs backends", s.Name)
		}
		svc.Backends = append([]net.IPAddr(nil), s.Backends...)
		pool, err := apps.NewMaglev(svc.Backends)
		if err != nil {
			return err
		}
		svc.pool = pool
	}
	if c.router.frozen {
		svc.size(len(c.router.shards))
	}
	c.services[s.Name] = svc
	c.svcOrder = append(c.svcOrder, svc)
	for _, n := range c.nodes {
		n.svcCounts = append(n.svcCounts, 0)
		n.fits = append(n.fits, n.staticFit(svc))
	}
	c.registerServiceMetrics(svc)
	c.sloAddService(svc)
	return nil
}

// Services lists registered service names in registration order.
func (c *Cluster) Services() []string {
	out := make([]string, len(c.svcOrder))
	for i, svc := range c.svcOrder {
		out[i] = svc.Name
	}
	return out
}

// foldURAM rewrites a footprint for chips without UltraRAM: each URAM
// block (288Kb) becomes eight BRAM36 blocks.
func foldURAM(r hdl.Resources, hasURAM bool) hdl.Resources {
	if hasURAM || r.URAM == 0 {
		return r
	}
	r.BRAM += 8 * r.URAM
	r.URAM = 0
	return r
}

// adaptDemands tailors merged service demands to one device's
// peripheral set: HBM demands fall back to DDR4 where no stack exists;
// missing peripherals with no substitute reject the device.
func adaptDemands(dev *platform.Device, d shell.Demands) (shell.Demands, error) {
	out := shell.Demands{}
	if d.Network != nil {
		cage, ok := dev.Peripheral(platform.Network, "")
		if !ok {
			return out, fmt.Errorf("fleet: %s has no network cage", dev.Name)
		}
		if d.Network.Gbps > cage.GbpsPerUnit {
			return out, fmt.Errorf("fleet: %s cages provide %v Gbps, demand is %v",
				dev.Name, cage.GbpsPerUnit, d.Network.Gbps)
		}
		nd := *d.Network
		out.Network = &nd
	}
	seen := map[ip.MemKind]bool{}
	for _, md := range d.Memory {
		kind := md.Kind
		switch {
		case kind == ip.HBMMem && dev.HasPeripheral("HBM"):
		case kind == ip.HBMMem && dev.HasPeripheral("DDR4"):
			kind = ip.DDR4Mem // fall back: same behaviour, lower bandwidth
		case kind == ip.DDR4Mem && dev.HasPeripheral("DDR4"):
		default:
			return out, fmt.Errorf("fleet: %s cannot satisfy %s memory demand", dev.Name, md.Kind)
		}
		if !seen[kind] {
			seen[kind] = true
			out.Memory = append(out.Memory, shell.MemoryDemand{Kind: kind})
		}
	}
	if d.Host != nil {
		if _, ok := dev.PCIe(); !ok {
			return out, fmt.Errorf("fleet: %s has no PCIe", dev.Name)
		}
		hd := *d.Host
		out.Host = &hd
	}
	return out, nil
}

// mergedDemands is the union of every registered service's demands —
// the shell each commissioned device must carry so any replica can be
// placed or failed over onto it.
func (c *Cluster) mergedDemands() shell.Demands {
	var out shell.Demands
	for _, svc := range c.svcOrder {
		d := svc.Demands
		if d.Network != nil {
			if out.Network == nil {
				nd := *d.Network
				out.Network = &nd
			} else {
				if d.Network.Gbps > out.Network.Gbps {
					out.Network.Gbps = d.Network.Gbps
				}
				out.Network.Filter = out.Network.Filter || d.Network.Filter
				out.Network.Director = out.Network.Director || d.Network.Director
			}
		}
		for _, md := range d.Memory {
			found := false
			for _, have := range out.Memory {
				if have.Kind == md.Kind {
					found = true
					break
				}
			}
			if !found {
				out.Memory = append(out.Memory, md)
			}
		}
		if d.Host != nil {
			if out.Host == nil {
				hd := *d.Host
				out.Host = &hd
			} else {
				if d.Host.Queues > out.Host.Queues {
					out.Host.Queues = d.Host.Queues
				}
				// Scatter-gather serves both; only all-bulk stays bulk.
				out.Host.Bulk = out.Host.Bulk && d.Host.Bulk
			}
		}
	}
	if out.Network != nil {
		// The flow director is the fleet's tenant-steering mechanism.
		out.Network.Director = true
	}
	return out
}

// fleetBaseLogic is the static role-region scaffolding (slot routing,
// decouplers) the base deployment carries; tenants bring their own
// logic into PR slots.
func fleetBaseLogic() *hdl.Module {
	return &hdl.Module{
		Name:     "fleet-base",
		Vendor:   "user",
		Category: "role",
		Res:      hdl.Resources{LUT: 18_000, REG: 26_000, BRAM: 32},
		Code:     hdl.LoC{Handcraft: 2_400},
	}
}

// slotBudget computes how many PR slots the chip's structural headroom
// supports after the deployed shell+base image is subtracted, up to
// maxSlots.
func slotBudget(capacity, used, slotRes hdl.Resources) int {
	free := capacity.Sub(used)
	budget := maxSlots
	for _, kind := range hdl.ResourceKinds {
		need, _ := slotRes.Get(kind)
		if need <= 0 {
			continue
		}
		have, _ := free.Get(kind)
		if n := have / need; n < budget {
			budget = n
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// Commission deploys the fleet shell onto a device through the real
// toolchain pipeline, boots the instance, builds the functional
// datapath RBBs, arms the thermal watchdog and wires irq events into
// the control plane. The node starts Healthy.
func (c *Cluster) Commission(id string, plat *platform.Device) (*Node, error) {
	if id == "" || plat == nil {
		return nil, fmt.Errorf("fleet: invalid commission request")
	}
	if _, dup := c.byID[id]; dup {
		return nil, fmt.Errorf("fleet: node %q already commissioned", id)
	}
	if len(c.services) == 0 {
		return nil, fmt.Errorf("fleet: register services before commissioning devices")
	}
	demands, err := adaptDemands(plat, c.mergedDemands())
	if err != nil {
		return nil, err
	}
	baseRole, err := role.New("fleet-base", demands, fleetBaseLogic())
	if err != nil {
		return nil, err
	}
	proj, err := toolchain.Integrate(plat, baseRole)
	if err != nil {
		return nil, fmt.Errorf("fleet: deploy on %s: %w", id, err)
	}
	inst, err := device.Boot(proj)
	if err != nil {
		return nil, err
	}
	inst.SetThermalThreshold(c.cfg.DegradeMilliC)

	clk := apps.UserClock()
	// All catalog cages run 100G optics; the functional line matches.
	netRBB, err := rbb.NewNetwork(plat.Vendor, ip.Speed100G, clk, apps.UserWidth)
	if err != nil {
		return nil, err
	}
	netRBB.Filter.SetEnabled(false)
	pcieP, ok := plat.PCIe()
	if !ok {
		return nil, fmt.Errorf("fleet: %s has no PCIe", plat.Name)
	}
	hostRBB, err := rbb.NewHost(plat.Vendor, pcieP.PCIeGen, pcieP.PCIeLanes, ip.SGDMA,
		clk, apps.UserWidth)
	if err != nil {
		return nil, err
	}

	hasURAM := plat.Chip.Capacity.URAM > 0
	slotRes := foldURAM(c.cfg.SlotRes, hasURAM)
	slots := slotBudget(plat.Chip.Capacity, proj.Bitstream.Res, slotRes)
	if max := hostRBB.Spec().QueueCount / queuesPerTenant; slots > max {
		slots = max
	}
	n := &Node{
		ID: id, Platform: plat, Project: proj, Inst: inst,
		Net: netRBB, Host: hostRBB,
		slotRes: slotRes, slots: slots,
		state:     Healthy,
		replicas:  make(map[string]*Replica),
		svcCounts: make([]int, len(c.svcOrder)),
		fits:      make([]bool, len(c.svcOrder)),
	}
	for i, svc := range c.svcOrder {
		n.fits[i] = n.staticFit(svc)
	}
	if slots > 0 {
		mgr, err := tenancy.NewManager(tenancy.SlotConfig{
			Slots:           slots,
			SlotRes:         slotRes,
			ReconfigTime:    c.cfg.ReconfigTime,
			QueuesPerTenant: queuesPerTenant,
			LoadRetries:     loadRetries,
			LoadBackoff:     loadBackoff,
		}, netRBB.Director, hostRBB)
		if err != nil {
			return nil, err
		}
		n.Tenants = mgr
		c.wireLoadFault(n)
	}
	inst.OnInterrupt(func(ev device.Event) { c.onEvent(n, ev) })
	if c.cmdTrack != nil {
		inst.SetCmdTrace(c.cmdTrack)
	}
	n.index = len(c.nodes)
	// Nodes commissioned after the router froze its shard layout join
	// racks and shards round-robin by commission index (with RackP2C
	// the shard is the rack).
	if c.router.frozen {
		n.rack = c.racks.join(n.index)
		if c.cfg.RackP2C {
			n.shard = n.rack
		} else {
			n.shard = n.index % len(c.router.shards)
		}
	}
	if c.gossip != nil {
		c.gossip.Add()
	}
	c.nodes = append(c.nodes, n)
	c.byID[id] = n
	return n, nil
}

// Nodes lists commissioned nodes in commission order.
func (c *Cluster) Nodes() []*Node { return append([]*Node(nil), c.nodes...) }

// Node returns a commissioned node.
func (c *Cluster) Node(id string) (*Node, error) {
	n, ok := c.byID[id]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown node %q", id)
	}
	return n, nil
}

// Replicas lists every replica (placed or not) in creation order.
func (c *Cluster) Replicas() []*Replica { return append([]*Replica(nil), c.replicas...) }

// Kill silently kills a device: every subsequent command on its wire is
// corrupted until the driver gives up, so the device stops answering
// heartbeats. Detection takes FailedAfter missed heartbeats.
func (c *Cluster) Kill(id string) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.killed = true
	n.Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
		if len(buf) > 0 {
			buf[0] ^= 0xFF
		}
		return buf
	})
	return nil
}

// CutLink severs a device's network link: the PHY raises an
// EventLinkDown over the irq path (latency-critical, bypassing the
// command interface), and the control plane fails the node immediately.
func (c *Cluster) CutLink(now sim.Time, id string) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	c.advance(now)
	return n.Inst.RaiseEvent(device.RBBNetwork, 0, device.EventLinkDown, 0)
}

// Overheat injects additional die temperature (milli-degC) into a
// device's sensors; the next heartbeat trips the thermal watchdog and
// degrades the node.
func (c *Cluster) Overheat(id string, offsetMilliC uint32) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.Inst.SetThermalOffset(offsetMilliC)
	return nil
}

// Cool removes an injected thermal offset.
func (c *Cluster) Cool(id string) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.Inst.SetThermalOffset(0)
	return nil
}

// SetPRLoadFault installs (or, with nil, removes) the bitstream
// load-failure injector on every node's tenancy manager, current and
// future. The predicate must be deterministic in its arguments so
// seeded chaos runs reproduce.
func (c *Cluster) SetPRLoadFault(fn func(node, tenant string, slot, attempt int) bool) {
	c.prLoadFault = fn
	for _, n := range c.nodes {
		c.wireLoadFault(n)
	}
}

// wireLoadFault binds the cluster's PR-load fault predicate to one
// node's tenancy manager.
func (c *Cluster) wireLoadFault(n *Node) {
	if n.Tenants == nil {
		return
	}
	if c.prLoadFault == nil {
		n.Tenants.SetLoadFault(nil)
		return
	}
	id, fn := n.ID, c.prLoadFault
	n.Tenants.SetLoadFault(func(tenant string, slot, attempt int) bool {
		return fn(id, tenant, slot, attempt)
	})
}

// Revive returns a drained device to service after its fault cleared
// (link restored, power back): leftover tenancy slots from a dead-node
// evacuation are blanked, the command wire is restored, and the node
// rejoins the fleet Healthy and empty — the next Place or failover can
// use it again.
func (c *Cluster) Revive(now sim.Time, id string) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	if n.state != Drained {
		return fmt.Errorf("fleet: node %s is %s; only drained nodes revive", id, n.state)
	}
	c.advance(now)
	// A dead-node evacuation abandoned the slots (the device could not
	// execute evictions); blank them now that it answers again.
	if n.Tenants != nil {
		for _, t := range n.Tenants.Tenants() {
			_, _ = n.Tenants.Evict(c.now, t.ID)
		}
	}
	n.killed = false
	n.Inst.SetWireFaultInjector(nil)
	n.missed = 0
	c.setState(c.now, n, Healthy, "revived")
	return nil
}

// CmdPathStats aggregates the command-path counters of every node's
// driver: completed commands, checksum retransmissions and commands
// dropped after exhausting retries — the fleet-level view of
// command-wire health the chaos drill reports.
type CmdPathStats struct {
	Issued, Retries, Drops int64
}

// CmdPath sums the command-path counters across every node's driver.
func (c *Cluster) CmdPath() CmdPathStats {
	var s CmdPathStats
	for _, n := range c.nodes {
		issued, retries, drops := n.Inst.CmdStats()
		s.Issued += issued
		s.Retries += retries
		s.Drops += drops
	}
	return s
}
