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
// its own RNG and, on every service's record, that service's counters
// and latency histogram for the shard (svcShardStats, the one place a
// routed packet is counted); flows hash
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

// router holds the sharded dispatch state: the one shard and rack
// layout freeze, and the replica index's pending heap and maintenance
// points (index.go); each service holds its own ready lists.
type router struct {
	c      *Cluster
	seed   int64
	frozen bool
	shards []*routerShard
	// pending is a min-heap on readyAt (heapPush/heapPop) of replicas
	// waiting out their reconfiguration; matured is the time of the
	// last maturation.
	pending []pendingEntry
	matured sim.Time
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
	return &router{c: c, seed: seed, epoch: 1}
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

// freeze fixes the shard and rack layout on the first routing
// operation: the rack and shard counts resolve from the fleet size,
// nodes get their rack and shard, every registered service's index is
// sized, and the index builds from the current placement state (until
// now, placement churn was not tracked). Nodes commissioned later
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
			n.shard = n.rack
		} else {
			n.shard = i % s
		}
	}
	for _, svc := range r.c.svcOrder {
		svc.size(s)
	}
	for _, rep := range r.c.replicas {
		if rep.node != nil {
			r.noteAdmit(rep, r.c.now)
		}
	}
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
// to exactly one shard), and svc.disp was sized on the serial path, so
// no allocation or write here is shared across workers.
func (r *router) refreshDisp(svc *service, s int) *shardDisp {
	d := &svc.disp[s]
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
	d.bulk = svc.Class == ClassBulk
	d.shed = 0
	derived := r.c.cfg.DerivedShedding
	for _, rep := range svc.ready[s] {
		n := rep.node
		// Class shedding order: a bulk service's replicas leave the
		// dispatch view once their node's thermal margin erodes past the
		// bulk-shed line, reserving the throttled remainder for
		// co-resident latency-critical traffic. lastTemp only moves at
		// barriers (which bump the epoch), so the exclusion is frozen
		// per view like every other penalty input.
		if d.bulk && derived && r.c.shedsBulk(n.lastTemp) {
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
func (r *router) dispatchShard(svc *service, h uint64) int {
	act := svc.active
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
	qa := int64(r.c.racks.queue[a]) * int64(len(svc.ready[b]))
	qb := int64(r.c.racks.queue[b]) * int64(len(svc.ready[a]))
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

// ServiceSnapshot is a cumulative dispatch counter set: one service's
// (ServiceStats), one (service, shard)'s, or the router's, summed over
// services (RouterStats). HealthyServed counts served packets that
// landed on a Healthy node; HealthyServed/Sent is the availability the
// drills gate on. Shed counts drops caused by the class shedding order
// (bulk excluded from thermally eroded nodes), a subset of Dropped; for
// a latency-critical service it stays zero by construction.
type ServiceSnapshot struct {
	Sent, Served, Dropped int64
	HealthyServed         int64
	Shed                  int64
	Bytes                 int64
}

// add returns s + o, field by field.
func (s ServiceSnapshot) add(o ServiceSnapshot) ServiceSnapshot {
	return ServiceSnapshot{
		Sent: s.Sent + o.Sent, Served: s.Served + o.Served, Dropped: s.Dropped + o.Dropped,
		HealthyServed: s.HealthyServed + o.HealthyServed, Shed: s.Shed + o.Shed, Bytes: s.Bytes + o.Bytes,
	}
}

// sub returns s − o, field by field.
func (s ServiceSnapshot) sub(o ServiceSnapshot) ServiceSnapshot {
	return ServiceSnapshot{
		Sent: s.Sent - o.Sent, Served: s.Served - o.Served, Dropped: s.Dropped - o.Dropped,
		HealthyServed: s.HealthyServed - o.HealthyServed, Shed: s.Shed - o.Shed, Bytes: s.Bytes - o.Bytes,
	}
}

// RouterStats reports cumulative dispatch counters: the per-service
// counters summed over services and shards.
func (c *Cluster) RouterStats() ServiceSnapshot {
	var snap ServiceSnapshot
	for _, svc := range c.svcOrder {
		snap = snap.add(svc.snapshot())
	}
	return snap
}

// resetWindow starts a fresh latency measurement window: every
// service's per-shard share.
func (r *router) resetWindow() {
	for _, svc := range r.c.svcOrder {
		for i := range svc.stats {
			svc.stats[i].hist.Reset()
		}
	}
}

// windowHist merges every service's per-shard windows into the
// router's own histogram and returns it, valid until the next call:
// callers read it and let it go. Every served packet lands in exactly
// one (service, shard) window, and histogram merging is exact, so the
// result is independent of service and shard order.
func (r *router) windowHist() *metrics.Histogram {
	r.win.Reset()
	for _, svc := range r.c.svcOrder {
		for i := range svc.stats {
			r.win.Merge(&svc.stats[i].hist)
		}
	}
	return &r.win
}

// ServiceStats reports one service's cumulative dispatch counters,
// merged across shards (zero for an unknown service).
func (c *Cluster) ServiceStats(name string) ServiceSnapshot {
	if svc := c.services[name]; svc != nil {
		return svc.snapshot()
	}
	return ServiceSnapshot{}
}

// ServiceWindowLatencies merges one service's current-window latency
// histograms across shards (exact, shard-order independent) into the
// router's own histogram, the one windowHist fills, and returns it. The
// result is valid until the next call of either: callers read or merge
// it at once and let it go.
func (c *Cluster) ServiceWindowLatencies(name string) *metrics.Histogram {
	r := c.router
	r.win.Reset()
	if svc := c.services[name]; svc != nil {
		for i := range svc.stats {
			r.win.Merge(&svc.stats[i].hist)
		}
	}
	return &r.win
}
