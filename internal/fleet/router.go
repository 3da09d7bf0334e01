package fleet

import (
	"math/rand"

	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The fleet router dispatches live workload across a service's
// replicas. Replica choice is queue-depth aware: two candidates are
// sampled (power-of-two-choices) and the one whose device carries the
// smaller datapath backlog wins; degraded devices pay a cost penalty so
// traffic drains away from them without a hard cutoff. The chosen
// packet then really crosses the device: flow-director steering with
// the tenancy isolation check, then MAC + wrapper ingress with tail
// drop under overload.
//
// Dispatch state is sharded. Each shard owns a disjoint subset of the
// fleet's nodes (node commission index mod shard count) together with
// its own RNG, counters and per-service latency histograms; flows hash
// onto shards, remapped over the shards that currently hold ready
// replicas. Between control-plane barriers (heartbeat ticks) a shard's
// state is touched by exactly one goroutine, which is what lets Serve
// route packets in parallel while staying bit-reproducible across
// worker counts: the per-shard packet order and RNG stream are fixed by
// the flow hash, not by goroutine scheduling, and counters/histograms
// merge exactly.

// degradedPenalty scales a degraded device's apparent queue depth.
const degradedPenalty = 4

// maxRouterShards caps the automatic shard count.
const maxRouterShards = 16

// autoShardNodes is how many nodes each automatic shard covers.
const autoShardNodes = 64

// shardSeedStride separates per-shard RNG streams (shard 0 keeps the
// configured seed).
const shardSeedStride int64 = 0x5851F42D4C957F2D

// flowCacheSize is the per-(service, shard) flow route cache capacity —
// a direct-mapped, power-of-two table of cached candidate pairs indexed
// by the flow hash's low bits, 12KB per (service, shard). Uniform
// dispatch picks the shard from the same hash (modulo the active shard
// count), so at 16 active shards only the 32 lines whose low four bits
// match the shard's index are reachable.
const flowCacheSize = 512

// routerShard is the dispatch state one worker owns during a phase.
type routerShard struct {
	rng *rand.Rand
	// Cumulative counters (merged into RouterSnapshot). healthy counts
	// the served packets that landed on a Healthy node — the numerator
	// of the chaos drill's availability metric.
	sent, served, dropped int64
	healthy               int64
	bytes                 int64
	// trace is the shard's trace track (nil when tracing is off — the
	// zero-cost disabled state). sampleN decimates packet spans; the
	// per-shard counter keeps sampling deterministic because per-shard
	// packet subsequences are fixed by the flow hash.
	trace       *obs.Buffer
	sampleN     int
	sinceSample int
	// hot is the shard's SoA view of its nodes' dispatch-hot state
	// (backlog horizon, penalty, health), rebuilt lazily per dispatch
	// epoch; hotEpoch records which epoch built it. Slots are assigned
	// through Node.hotSlot as services refresh their dispatch views, so
	// replicas sharing a node share one backlog mirror.
	hot      []nodeHot
	hotEpoch uint64
}

// nodeHot is one node's dispatch-hot state, flattened into the owning
// shard's slice at dispatch-view refreshes: the live backlog mirror
// plus the frozen cost and health inputs the per-packet loop reads,
// contiguous instead of four pointer chases through Node. busy writes
// through to Node.busyUntil on every served packet, so control-plane
// digests never see a stale view.
type nodeHot struct {
	n    *Node
	busy sim.Time
	// penMul is the derived-shedding cost multiplier (>1) frozen at the
	// last barrier; 0 when inactive. degraded applies the static ×4.
	penMul   float64
	degraded bool
	healthy  bool
}

// hotCost is the routing metric over the SoA view: outstanding
// backlog, inflated on thermally stressed devices. Statically a
// degraded device pays a flat ×4; with derived shedding the penalty
// follows the throttling model — it grows continuously with the node's
// last heartbeat temperature as the thermal margin erodes, reaching ×4
// at the alarm line (past which the node is not routable at all). The
// penalty inputs are frozen at the last barrier, which they are anyway:
// state and lastTemp only change on the control-plane path, and every
// such change bumps the dispatch epoch.
func (sh *routerShard) hotCost(slot int32, now sim.Time) sim.Time {
	h := &sh.hot[slot]
	d := h.busy - now
	if d < 0 {
		d = 0
	}
	if h.penMul > 0 {
		return sim.Time(float64(d+sim.Microsecond) * h.penMul)
	}
	if h.degraded {
		return (d + sim.Microsecond) * degradedPenalty
	}
	return d
}

// flowEntry is one flow route cache line: the flow's two-choice
// candidate pair, valid for one dispatch epoch. The RNG pair is drawn
// once per flow per epoch — the amortized-draw half of batch-quantum
// dispatch — while the per-packet cost comparison between the two
// candidates stays live, so queue-depth balancing is preserved but the
// RNG draws are not repeated per packet.
type flowEntry struct {
	hash  uint64
	epoch uint64
	// a, b index the dispatch view's parallel arrays; b is -1 for a
	// single-candidate shard.
	a, b int32
}

// shardDisp is one (service, shard) dispatch view: the shard's ready
// replicas flattened into parallel arrays — replica, VIP, hot-state
// slot, steerable bit — plus the flow route cache. It is
// rebuilt lazily when the dispatch epoch moves (every control-plane
// barrier, health or placement transition bumps the epoch) and is
// owned by the shard's worker between barriers, under the same
// ownership rule as the rest of the shard state.
type shardDisp struct {
	epoch uint64
	reps  []*Replica
	vip   []net.IPAddr
	slot  []int32
	// steerable is false for a replica whose VIP its node's flow
	// director does not resolve (ResolveSteering, once per rebuild):
	// packets sent to it drop, as the per-packet Route would drop them.
	steerable []bool
	cache     []flowEntry
	// bulk mirrors the owning service's class; shed counts ready
	// replicas this rebuild excluded because their node crossed the
	// bulk-shed line — when it empties the view, packets landing here
	// are shed, not merely unroutable.
	bulk bool
	shed int32
}

// tracePacket records one served packet's route span, subject to the
// sampling divisor. Caller guards sh.trace != nil.
func (sh *routerShard) tracePacket(now, done sim.Time, node string, bytes int64) {
	sh.sinceSample++
	if sh.sinceSample < sh.sampleN {
		return
	}
	sh.sinceSample = 0
	e := obs.Span(obs.CatPacket, "route", now, done)
	e.K1, e.V1 = "node", node
	e.K2, e.V2 = "bytes", bytes
	sh.trace.Add(e)
}

// traceDrop records one dropped packet, unsampled — drops are rare and
// each one matters to a post-mortem. Caller guards sh.trace != nil.
func (sh *routerShard) traceDrop(now sim.Time, node string) {
	e := obs.Instant(obs.CatPacket, "drop", now)
	e.K1, e.V1 = "node", node
	sh.trace.Add(e)
}

// router holds the sharded dispatch state.
type router struct {
	c      *Cluster
	seed   int64
	frozen bool
	shards []*routerShard
	idx    *replicaIndex
	// epoch is the dispatch epoch. Every control-plane barrier and
	// every health or placement transition bumps it, lazily invalidating
	// the per-shard SoA views and flow route caches; all bumps happen on
	// the serial control-plane path.
	epoch uint64
	// win is the merge target of windowHist and ServiceWindowLatencies.
	win metrics.Histogram
}

func newRouter(c *Cluster, seed int64) *router {
	// epoch starts at 1 so zero-valued dispatch views are born stale.
	return &router{c: c, seed: seed, idx: newReplicaIndex(c), epoch: 1}
}

// bumpEpoch invalidates every shard's dispatch view and flow cache.
// Serial control-plane path only.
func (r *router) bumpEpoch() { r.epoch++ }

// shardCount resolves the configured or automatic shard count for the
// current fleet size. One shard per autoShardNodes nodes keeps the
// two-choice sampling pool large while bounding merge fan-in; small
// fleets get a single shard, preserving fleet-wide two-choice exactly.
// With RackP2C the shard layout nests in the racks — one shard per
// rack, uncapped, so a shard's nodes stay one contiguous rack no
// matter how large the fleet grows.
func (r *router) shardCount() int {
	if r.c.cfg.RackP2C {
		return r.c.rackCount(len(r.c.nodes))
	}
	if s := r.c.cfg.RouterShards; s > 0 {
		return s
	}
	s := len(r.c.nodes)/autoShardNodes + 1
	if s > maxRouterShards {
		s = maxRouterShards
	}
	return s
}

// freeze fixes the shard layout on the first routing operation: the
// shard count resolves from the fleet size, nodes get their shard
// assignment, and the replica index builds. Nodes commissioned later
// join shards round-robin; the shard count never changes afterwards,
// so seeded phases stay reproducible.
func (r *router) freeze() {
	if r.frozen {
		return
	}
	r.frozen = true
	r.c.racks.freeze()
	s := r.shardCount()
	r.shards = make([]*routerShard, s)
	for i := range r.shards {
		r.shards[i] = &routerShard{
			rng: rand.New(rand.NewSource(r.seed + int64(i)*shardSeedStride)),
		}
	}
	for i, n := range r.c.nodes {
		if r.c.cfg.RackP2C {
			// Shard = rack: the in-shard two-choice below becomes the
			// in-rack router, over one contiguous block of nodes.
			n.shard = r.c.racks.rackOf[i]
		} else {
			n.shard = i % s
		}
	}
	r.idx.freeze(s)
	r.c.attachShardTraces()
	r.c.rackRefresh(r.c.now)
}

// candidates lists the service's dispatchable replicas at now by
// scanning every replica: placed, reconfiguration complete, device
// serving traffic. This is the naive O(replicas) scan the replica
// index replaces; tests keep it as the oracle the index is
// cross-checked against.
func (c *Cluster) candidates(svc string, now sim.Time) []*Replica {
	var out []*Replica
	for _, r := range c.replicas {
		if r.Service != svc || r.Node == "" || now < r.ReadyAt {
			continue
		}
		n := c.byID[r.Node]
		if c.routableState(n.state) {
			out = append(out, r)
		}
	}
	return out
}

// refreshDisp returns the (service, shard) dispatch view, rebuilding
// it when the dispatch epoch moved since it was last built. Runs on
// the shard owner's goroutine: distinct shards rebuild concurrently,
// but each touches only its own shard state and nodes (a node belongs
// to exactly one shard), and si.disp was sized on the serial path, so
// no allocation or write here is shared across workers.
func (r *router) refreshDisp(si *svcIndex, s int) *shardDisp {
	d := &si.disp[s]
	if d.epoch == r.epoch {
		return d
	}
	sh := r.shards[s]
	if sh.hotEpoch != r.epoch {
		sh.hotEpoch = r.epoch
		sh.hot = sh.hot[:0]
	}
	d.epoch = r.epoch
	d.reps = d.reps[:0]
	d.vip = d.vip[:0]
	d.slot = d.slot[:0]
	d.steerable = d.steerable[:0]
	d.bulk = si.bulk
	d.shed = 0
	derived := r.c.cfg.DerivedShedding
	for _, rep := range si.ready[s] {
		n := rep.node
		// Class shedding order: a bulk service's replicas leave the
		// dispatch view once their node's thermal margin erodes past the
		// bulk-shed line, reserving the throttled remainder for
		// co-resident latency-critical traffic. lastTemp only moves at
		// barriers (which bump the epoch), so the exclusion is frozen
		// per view like every other penalty input.
		if si.bulk && derived && r.c.shedsBulk(n.lastTemp) {
			d.shed++
			continue
		}
		if n.hotEpoch != r.epoch {
			n.hotEpoch = r.epoch
			n.hotSlot = int32(len(sh.hot))
			h := nodeHot{n: n, busy: n.busyUntil, healthy: n.state == Healthy}
			if derived {
				if p := r.c.thermalPenalty(n.lastTemp); p > 1 {
					h.penMul = p
				}
			} else if n.state == Degraded {
				h.degraded = true
			}
			sh.hot = append(sh.hot, h)
		}
		_, span, err := n.Tenants.ResolveSteering(rep.VIP)
		d.reps = append(d.reps, rep)
		d.vip = append(d.vip, rep.VIP)
		d.slot = append(d.slot, n.hotSlot)
		d.steerable = append(d.steerable, err == nil && span > 0)
	}
	if d.cache == nil {
		d.cache = make([]flowEntry, flowCacheSize)
	}
	return d
}

// flowSlot returns the flow's cache entry, filling it on a miss: the
// candidate pair is drawn with the shard RNG exactly as per-packet
// two-choice did (two Intn draws, distinct indices), ordered so cost
// ties resolve to the lexicographically smaller node ID. RNG is
// consumed only here — per-shard flow subsequences are fixed by the
// flow hash, so cache miss order, and with it the RNG stream, is
// worker-count invariant.
func (sh *routerShard) flowSlot(d *shardDisp, h uint64) *flowEntry {
	e := &d.cache[h&(flowCacheSize-1)]
	if e.hash == h && e.epoch == d.epoch {
		return e
	}
	e.hash, e.epoch = h, d.epoch
	e.a, e.b = 0, -1
	if n := len(d.reps); n > 1 {
		i := sh.rng.Intn(n)
		j := sh.rng.Intn(n - 1)
		if j >= i {
			j++
		}
		a, b := int32(i), int32(j)
		if d.reps[b].Node < d.reps[a].Node {
			a, b = b, a
		}
		e.a, e.b = a, b
	}
	return e
}

// routeResult is one batched dispatch outcome. node is nil when the
// shard had no candidates at all.
type routeResult struct {
	rep     *Replica
	node    *Node
	done    sim.Time
	served  bool
	healthy bool
}

// routeCached dispatches one packet on one shard through the batched
// fast path: cached candidate pair, live two-way cost comparison over
// the SoA view, pre-resolved steering, and the directed ingress
// variant that skips the per-packet Ex-function lookups. Counter,
// histogram and trace updates stay with the caller so the batch loop
// can accumulate them in bulk.
func (c *Cluster) routeCached(sh *routerShard, d *shardDisp, h uint64, now sim.Time, p *net.Packet) routeResult {
	if len(d.reps) == 0 {
		return routeResult{}
	}
	e := sh.flowSlot(d, h)
	ai := e.a
	if e.b >= 0 && sh.hotCost(d.slot[e.b], now) < sh.hotCost(d.slot[e.a], now) {
		ai = e.b
	}
	hot := &sh.hot[d.slot[ai]]
	n := hot.n
	rep := d.reps[ai]
	if !d.steerable[ai] {
		return routeResult{rep: rep, node: n}
	}
	p.DstIP = d.vip[ai]
	done, ok := n.Net.IngressDirected(now, p)
	if !ok {
		return routeResult{rep: rep, node: n, done: done}
	}
	if done > hot.busy {
		hot.busy = done
		n.busyUntil = done
	}
	if rep.flows != nil {
		rep.flows.process(p.Flow())
	}
	// Per-class serve counter on the node (shard-owned between barriers,
	// like busyUntil): the shed-order evidence drills gate on — a node
	// past the bulk-shed line serves latency-critical packets while its
	// bulk count stays flat.
	if d.bulk {
		n.classServed[1]++
	} else {
		n.classServed[0]++
	}
	return routeResult{rep: rep, node: n, done: done, served: true, healthy: hot.healthy}
}

// dispatchShard maps a flow hash onto the shard that will route it,
// over the shards currently holding ready replicas. Default: uniform
// by flow hash. RackP2C: two hash-derived candidate racks compete on
// their barrier-frozen backlog-per-ready-replica digests and the
// cheaper rack wins (shard = rack) — rack-first power-of-two-choices
// whose cost is O(1) in the fleet size. Both candidate indices come
// from disjoint bit slices of the flow hash, so dispatch is RNG-free
// and identical for a flow no matter which worker routes it.
func (r *router) dispatchShard(si *svcIndex, h uint64) int {
	act := si.active
	if !r.c.cfg.RackP2C || len(act) < 2 {
		return act[int(h%uint64(len(act)))]
	}
	i := int(h % uint64(len(act)))
	j := int((h >> 21) % uint64(len(act)-1))
	if j >= i {
		j++
	}
	a, b := act[i], act[j]
	// Compare backlog per ready replica without division:
	// queue[a]/|ready[a]| vs queue[b]/|ready[b]| cross-multiplied.
	qa := int64(r.c.racks.queue[a]) * int64(len(si.ready[b]))
	qb := int64(r.c.racks.queue[b]) * int64(len(si.ready[a]))
	switch {
	case qa < qb:
		return a
	case qb < qa:
		return b
	case a < b:
		return a
	default:
		return b
	}
}

// RouterSnapshot is the router's cumulative view. HealthyServed counts
// served packets that landed on a Healthy node; HealthyServed/Sent is
// the chaos drill's availability.
type RouterSnapshot struct {
	Sent, Served, Dropped int64
	HealthyServed         int64
	Bytes                 int64
}

// RouterStats reports cumulative dispatch counters, merged across
// shards.
func (c *Cluster) RouterStats() RouterSnapshot {
	r := c.router
	var snap RouterSnapshot
	for _, sh := range r.shards {
		snap.Sent += sh.sent
		snap.Served += sh.served
		snap.Dropped += sh.dropped
		snap.HealthyServed += sh.healthy
		snap.Bytes += sh.bytes
	}
	return snap
}

// resetWindow starts a fresh latency measurement window: every
// service's per-shard share.
func (r *router) resetWindow() {
	for _, si := range r.idx.svcs {
		for i := range si.stats {
			si.stats[i].hist.Reset()
		}
	}
}

// windowHist merges every service's per-shard windows into the
// router's own histogram and returns it, valid until the next call:
// callers read it and let it go. Every served packet lands in exactly
// one (service, shard) window, and histogram merging is exact, so the
// result is independent of map and shard order.
func (r *router) windowHist() *metrics.Histogram {
	r.win.Reset()
	for _, si := range r.idx.svcs {
		for i := range si.stats {
			r.win.Merge(&si.stats[i].hist)
		}
	}
	return &r.win
}

// ServiceSnapshot is one service's cumulative dispatch view, the
// per-service analogue of RouterSnapshot. Shed counts drops caused by
// the class shedding order (a subset of Dropped); for a
// latency-critical service it stays zero by construction.
type ServiceSnapshot struct {
	Sent, Served, Dropped int64
	HealthyServed         int64
	Shed                  int64
	Bytes                 int64
}

// ServiceStats reports one service's cumulative dispatch counters,
// merged across shards. The svcIndex is looked up at call time —
// freeze rebuilds the index map, so the registry's per-service
// callbacks must not capture the pre-freeze *svcIndex.
func (c *Cluster) ServiceStats(name string) ServiceSnapshot {
	var snap ServiceSnapshot
	si, ok := c.router.idx.svcs[name]
	if !ok {
		return snap
	}
	for i := range si.stats {
		st := &si.stats[i]
		snap.Sent += st.sent
		snap.Served += st.served
		snap.Dropped += st.dropped
		snap.HealthyServed += st.healthy
		snap.Shed += st.shed
		snap.Bytes += st.bytes
	}
	return snap
}

// ServiceWindowLatencies merges one service's current-window latency
// histograms across shards (exact, shard-order independent) into the
// router's own histogram, the one windowHist fills, and returns it. The
// result is valid until the next call of either: callers read or merge
// it at once and let it go.
func (c *Cluster) ServiceWindowLatencies(name string) *metrics.Histogram {
	r := c.router
	r.win.Reset()
	if si, ok := r.idx.svcs[name]; ok {
		for i := range si.stats {
			r.win.Merge(&si.stats[i].hist)
		}
	}
	return &r.win
}

// NodeStats is one device's live view for operator output. CmdRetries
// and CmdDrops surface the device driver's command-path retransmission
// counters: a wire going marginal shows up here before the node misses
// enough heartbeats to fail.
type NodeStats struct {
	ID         string
	State      State
	Slots      int
	Free       int
	Replicas   int
	Served     int64
	Dropped    int64
	CmdIssued  int64
	CmdRetries int64
	CmdDrops   int64
	TempC      float64
	Depth      sim.Time
}

// Fleet reports per-device stats at now, in commission order.
func (c *Cluster) Fleet(now sim.Time) []NodeStats {
	out := make([]NodeStats, 0, len(c.nodes))
	for _, n := range c.nodes {
		free := 0
		if n.Tenants != nil {
			free = n.Tenants.FreeSlots()
		}
		rx := n.Net.RxStats()
		issued, retries, drops := n.Inst.CmdStats()
		out = append(out, NodeStats{
			ID: n.ID, State: n.state, Slots: n.slots, Free: free,
			Replicas: len(n.replicas),
			Served:   rx.Units, Dropped: rx.Drops,
			CmdIssued: issued, CmdRetries: retries, CmdDrops: drops,
			TempC: float64(n.lastTemp) / 1000,
			Depth: n.QueueDepth(now),
		})
	}
	return out
}
