package fleet

import (
	"harmonia/internal/metrics"
	"harmonia/internal/sim"
)

// The replica index maintains, incrementally, the per-service set of
// dispatchable replicas — the same set candidates() derives by scanning
// every replica — so the router's fast path never walks the fleet per
// packet. Each registered service holds its own part of the index
// (svcIndex, embedded in the service record); the router holds the
// pending heap and the maintenance points below. The index is
// partitioned by router shard: each shard owns the replicas placed on
// its nodes, and a shard's ready list is read-only between
// control-plane barriers (heartbeat ticks), which is what lets Serve's
// packet loop run shards in parallel without locks.
//
// Maintenance points:
//   - admit: a freshly placed replica is pending until its slot
//     reconfiguration completes (ReadyAt), then matures into its
//     shard's ready list at the next control-plane tick;
//   - eviction/failover: the replica leaves its shard's ready list (and
//     any stale pending entry is invalidated lazily);
//   - health transitions: a node leaving the routable states (healthy,
//     degraded) takes all its ready replicas with it.

// pendingEntry is a replica waiting out its slot reconfiguration. The
// placement snapshot (node, readyAt) invalidates the entry lazily when
// the replica has been moved or evicted before maturing.
type pendingEntry struct {
	r       *Replica
	node    *Node
	readyAt sim.Time
}

func (e pendingEntry) key() sim.Time { return e.readyAt }

// svcShardStats is one (service, shard) dispatch counter set. Each
// shard's worker owns its entry between control-plane barriers (the
// same ownership rule as routerShard), so per-service accounting rides
// the batched path without locks.
type svcShardStats struct {
	ServiceSnapshot
	// hist is the service's share of the current measurement window's
	// latency distribution.
	hist metrics.Histogram
}

// svcIndex is one service's dispatchable replicas and dispatch
// counters, per router shard. Every slice is sized on the serial path
// when the router freezes its shard layout, so the per-shard workers
// only ever index into them.
type svcIndex struct {
	// ready holds the matured, routable replicas of each shard, in
	// maturation order (deterministic: all mutations happen on the
	// serial control-plane path).
	ready [][]*Replica
	// active lists shard ids with a non-empty ready list, ascending —
	// the flow-hash remap target set, so flows never hash onto a shard
	// that has nothing to serve.
	active []int
	// disp holds each shard's flattened dispatch view (router.go) and
	// stats its counters.
	disp  []shardDisp
	stats []svcShardStats
}

// size allocates the per-shard state for the frozen shard count.
func (si *svcIndex) size(shards int) {
	si.ready = make([][]*Replica, shards)
	si.disp = make([]shardDisp, shards)
	si.stats = make([]svcShardStats, shards)
}

// activate inserts a shard id into the sorted active list.
func (si *svcIndex) activate(shard int) {
	i := 0
	for i < len(si.active) && si.active[i] < shard {
		i++
	}
	si.active = append(si.active, 0)
	copy(si.active[i+1:], si.active[i:])
	si.active[i] = shard
}

// deactivate removes a shard id from the active list.
func (si *svcIndex) deactivate(shard int) {
	for i, s := range si.active {
		if s == shard {
			si.active = append(si.active[:i], si.active[i+1:]...)
			return
		}
	}
}

// snapshot merges one service's per-shard counters.
func (si *svcIndex) snapshot() ServiceSnapshot {
	var snap ServiceSnapshot
	for i := range si.stats {
		snap = snap.add(si.stats[i].ServiceSnapshot)
	}
	return snap
}

// addReady appends a matured replica to its shard's ready list. Any
// ready-list change is a placement transition: the dispatch epoch
// bumps so stale shard views and flow caches die lazily.
func (r *router) addReady(rep *Replica, shard int) {
	si := &rep.svc.svcIndex
	if len(si.ready[shard]) == 0 {
		si.activate(shard)
	}
	si.ready[shard] = append(si.ready[shard], rep)
	r.bumpEpoch()
}

// noteAdmit indexes a replica the placement scheduler just admitted (or,
// during freeze, an existing placement): pending until ReadyAt, ready
// immediately when its reconfiguration already completed.
func (r *router) noteAdmit(rep *Replica, now sim.Time) {
	if !r.frozen {
		return
	}
	n := rep.node
	if rep.ReadyAt > now {
		r.pending = heapPush(r.pending, pendingEntry{r: rep, node: n, readyAt: rep.ReadyAt}, pendingEntry.key)
		return
	}
	if r.c.routableState(n.state) {
		r.addReady(rep, n.shard)
	}
}

// noteRemove drops a replica leaving a node (eviction, failover). The
// ready list keeps its relative order so routing stays deterministic;
// a pending entry, if any, dies lazily on maturation.
func (r *router) noteRemove(rep *Replica, n *Node) {
	if !r.frozen {
		return
	}
	si := &rep.svc.svcIndex
	list := si.ready[n.shard]
	for i, have := range list {
		if have == rep {
			si.ready[n.shard] = append(list[:i], list[i+1:]...)
			if len(si.ready[n.shard]) == 0 {
				si.deactivate(n.shard)
			}
			r.bumpEpoch()
			return
		}
	}
}

// noteState reacts to a node health transition: leaving the routable
// states removes every ready replica on the node; re-entering them
// (derived shedding: degraded → healthy with placements intact) puts
// matured replicas back. A replica still reconfiguring keeps its
// pending entry and matures normally; one whose pending entry was
// discarded while the node was unroutable re-enters here, and no
// double-add is possible because maturation ran before this transition
// on the same control-plane tick.
func (r *router) noteState(n *Node, from, to State) {
	if !r.frozen || r.c.routableState(from) == r.c.routableState(to) {
		return
	}
	if r.c.routableState(to) {
		for _, rep := range n.Replicas() {
			if rep.ReadyAt <= r.c.now {
				r.addReady(rep, n.shard)
			}
		}
		return
	}
	for _, rep := range n.replicas {
		r.noteRemove(rep, n)
	}
}

// mature moves pending replicas whose reconfiguration completed by now
// into their shard's ready list. Runs at control-plane ticks; O(1) when
// nothing is due.
func (r *router) mature(now sim.Time) {
	if !r.frozen {
		return
	}
	r.matured = now
	for len(r.pending) > 0 && r.pending[0].readyAt <= now {
		var e pendingEntry
		r.pending, e = heapPop(r.pending, pendingEntry.key)
		// Stale entries: the replica moved or was evicted before
		// maturing, or its node stopped taking traffic.
		if e.r.node != e.node || e.r.ReadyAt != e.readyAt || !r.c.routableState(e.node.state) {
			continue
		}
		r.addReady(e.r, e.node.shard)
	}
}
