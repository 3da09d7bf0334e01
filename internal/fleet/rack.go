package fleet

import (
	"fmt"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The rack tier groups the fleet's nodes into contiguous racks — the
// same contiguous blocks the failure model's rack-power-loss faults
// cut. The registry reads per-rack backlog, ready-replica and
// down-node gauges through on demand; only under RackP2C does the
// per-rack backlog digest also refresh on the serial control-plane
// path at barriers (heartbeat ticks and phase starts), never per
// packet, so it is worker-count deterministic by the same ownership
// rule as the router shards.
//
// Two dispatch modes:
//
//   - Default (RackP2C off): the rack tier is observational — it feeds
//     only the registry's per-rack metrics — and dispatch is exactly
//     the flat sharded path, so same-seed results are byte-identical
//     across rack counts.
//
//   - RackP2C: the router's shard layout nests in the racks (one
//     shard per rack, contiguous nodes), and each packet first
//     two-choices between two hash-derived candidate racks on their
//     barrier-frozen backlog-per-ready-replica digests, then runs the
//     existing in-shard power-of-two-choices inside the winning rack.
//     Per-packet dispatch cost is O(1) in the fleet size; the rack
//     count becomes part of the seeded configuration, exactly as the
//     shard count already is.

// autoRackNodes is how many nodes an automatic rack covers.
const autoRackNodes = 64

// rackTier is the cluster's rack grouping and digest state.
type rackTier struct {
	c     *Cluster
	count int
	// nodesIn lists node indices per rack. Racks are contiguous blocks
	// of the commission order; nodes commissioned after the freeze join
	// racks round-robin. A node's own rack is Node.rack.
	nodesIn [][]int
	// queue is the per-rack aggregate datapath backlog, refreshed at
	// barriers (refreshedAt guards re-entry at one instant).
	queue       []sim.Time
	refreshedAt sim.Time
	refreshes   int64
}

// rackCount resolves the configured or automatic rack count for n
// nodes: one rack per autoRackNodes nodes, at least one.
func (c *Cluster) rackCount(n int) int {
	if r := c.cfg.Racks; r > 0 {
		if r > n && n > 0 {
			return n
		}
		return r
	}
	r := (n + autoRackNodes - 1) / autoRackNodes
	if r < 1 {
		r = 1
	}
	return r
}

// freeze fixes the rack layout: the count resolves from the fleet
// size and every node joins its contiguous block. Runs once, from the
// router's own freeze.
func (rt *rackTier) freeze() {
	n := len(rt.c.nodes)
	rt.count = rt.c.rackCount(n)
	rt.nodesIn = make([][]int, rt.count)
	for i, node := range rt.c.nodes {
		r := i * rt.count / n
		rt.nodesIn[r] = append(rt.nodesIn[r], i)
		node.rack = r
	}
	rt.queue = make([]sim.Time, rt.count)
	rt.c.registerRackMetrics()
}

// join assigns a node commissioned after the freeze to a rack,
// round-robin by commission index (mirroring the shard join rule).
func (rt *rackTier) join(i int) int {
	r := i % rt.count
	rt.nodesIn[r] = append(rt.nodesIn[r], i)
	return r
}

// refresh recomputes the per-rack backlog digests at a barrier. The
// digests stay frozen until the next barrier: packets dispatched
// between barriers all see the same rack costs, which keeps RackP2C
// results independent of the worker count. Only the RackP2C path
// refreshes eagerly (and traces the refresh); the observational
// default computes digests on demand at metric-snapshot time.
func (rt *rackTier) refresh(now sim.Time) {
	if !rt.c.router.frozen || (rt.refreshes > 0 && now == rt.refreshedAt) {
		return
	}
	rt.refreshedAt = now
	rt.refreshes++
	// A digest refresh is a barrier by definition; make sure the shard
	// dispatch views and flow caches refresh with it even when a caller
	// reaches refresh() outside the heartbeat path.
	rt.c.router.bumpEpoch()
	var maxQ sim.Time
	for r := range rt.queue {
		var q sim.Time
		for _, i := range rt.nodesIn[r] {
			q += rt.c.nodes[i].QueueDepth(now)
		}
		rt.queue[r] = q
		if q > maxQ {
			maxQ = q
		}
	}
	if rt.c.ctrl != nil {
		e := obs.Instant(obs.CatRack, "rack-digest", now)
		e.K2, e.V2 = "racks", int64(rt.count)
		e.K3, e.V3 = "max_queue_ps", int64(maxQ)
		rt.c.ctrl.Add(e)
	}
}

// digestQueue reads one rack's aggregate backlog digest on demand —
// the metric-snapshot path, which must not disturb the barrier-frozen
// dispatch digests.
func (rt *rackTier) digestQueue(r int) sim.Time {
	var q sim.Time
	for _, i := range rt.nodesIn[r] {
		q += rt.c.nodes[i].QueueDepth(rt.c.now)
	}
	return q
}

// rackRefresh refreshes the dispatch digests when the rack-first path
// is live. Called at barriers on the serial control-plane path.
func (c *Cluster) rackRefresh(now sim.Time) {
	if c.cfg.RackP2C {
		c.racks.refresh(now)
	}
}

// RackCount reports the frozen rack count (0 before the first routing
// operation freezes the layout).
func (c *Cluster) RackCount() int { return c.racks.count }

// Rack metric names.
const (
	mRackQueue = "harmonia_rack_queue_ps"
	mRackReady = "harmonia_rack_replicas_ready"
	mRackDown  = "harmonia_rack_nodes_down"
)

// registerRackMetrics wires the per-rack digests into the registry as
// read-through callbacks, once the rack layout is frozen and the rack
// count is known.
func (c *Cluster) registerRackMetrics() {
	for r := 0; r < c.racks.count; r++ {
		r := r
		labels := map[string]string{"rack": fmt.Sprintf("%03d", r)}
		c.reg.GaugeL(mRackQueue, labels, "Aggregate datapath backlog per rack (ps).",
			func() float64 { return float64(c.racks.digestQueue(r)) })
		c.reg.GaugeL(mRackReady, labels, "Ready replicas per rack.",
			func() float64 {
				n := 0
				for _, rep := range c.replicas {
					if rep.node != nil && rep.node.rack == r &&
						rep.ReadyAt <= c.now && c.routableState(rep.node.state) {
						n++
					}
				}
				return float64(n)
			})
		c.reg.GaugeL(mRackDown, labels, "Failed or drained nodes per rack.",
			func() float64 {
				n := 0
				for _, i := range c.racks.nodesIn[r] {
					if s := c.nodes[i].state; s == Failed || s == Drained {
						n++
					}
				}
				return float64(n)
			})
	}
}
