package fleet

import (
	"harmonia/internal/metrics"
	"harmonia/internal/sim"
)

// The replica index maintains, incrementally, the per-service set of
// dispatchable replicas — the same set candidates() derives by scanning
// every replica — so the router's fast path never walks the fleet per
// packet. The index is partitioned by router shard: each shard owns the
// replicas placed on its nodes, and a shard's ready list is read-only
// between control-plane barriers (heartbeat ticks), which is what lets
// Serve's packet loop run shards in parallel without locks.
//
// Maintenance points:
//   - admit: a freshly placed replica is pending until its slot
//     reconfiguration completes (ReadyAt), then matures into its
//     shard's ready list at the next control-plane tick;
//   - eviction/failover: the replica leaves its shard's ready list (and
//     any stale pending entry is invalidated lazily);
//   - health transitions: a node leaving the routable states (healthy,
//     degraded) takes all its ready replicas with it.

// routable reports whether a node in this state takes traffic; the
// policy lives on the cluster (derived shedding excludes degraded
// nodes) so the index and the naive scan always agree.
func (idx *replicaIndex) routable(s State) bool { return idx.c.routableState(s) }

// pendingEntry is a replica waiting out its slot reconfiguration. The
// placement snapshot (node, readyAt) invalidates the entry lazily when
// the replica has been moved or evicted before maturing.
type pendingEntry struct {
	r       *Replica
	node    string
	readyAt sim.Time
}

func (e pendingEntry) key() sim.Time { return e.readyAt }

// svcShardStats is one (service, shard) dispatch counter set. Each
// shard's worker owns its entry between control-plane barriers (the
// same ownership rule as routerShard), so per-service accounting rides
// the batched path without locks; shed counts drops caused by the
// class shedding order (bulk excluded from thermally eroded nodes),
// a subset of dropped.
type svcShardStats struct {
	sent, served, dropped int64
	healthy               int64
	shed                  int64
	bytes                 int64
	// hist is the service's share of the current measurement window's
	// latency distribution.
	hist metrics.Histogram
}

// svcIndex is one service's dispatchable replicas, per router shard.
type svcIndex struct {
	// ready holds the matured, routable replicas of each shard, in
	// maturation order (deterministic: all mutations happen on the
	// serial control-plane path).
	ready [][]*Replica
	// active lists shard ids with a non-empty ready list, ascending —
	// the flow-hash remap target set, so flows never hash onto a shard
	// that has nothing to serve.
	active []int
	// disp holds each shard's flattened dispatch view (router.go). The
	// slice is sized here, on the serial path, so the per-shard lazy
	// rebuilds only ever index into it — workers never append.
	disp []shardDisp
	// bulk mirrors the service's class (fleet.go): bulk services are
	// excluded from nodes past the bulk-shed line when the dispatch view
	// rebuilds.
	bulk bool
	// stats holds the per-shard service counters, sized on the serial
	// path like disp.
	stats []svcShardStats
}

// replicaIndex is the cluster-wide incremental index.
type replicaIndex struct {
	c      *Cluster
	shards int
	frozen bool
	svcs   map[string]*svcIndex
	// pending is a min-heap on readyAt (heapPush/heapPop).
	pending []pendingEntry
}

func newReplicaIndex(c *Cluster) *replicaIndex {
	return &replicaIndex{c: c, svcs: make(map[string]*svcIndex)}
}

// freeze fixes the shard count and builds the index from the current
// placement state. Until the first routing operation freezes the
// router, placement churn is absorbed here in one pass instead of
// being tracked incrementally.
func (idx *replicaIndex) freeze(shards int) {
	idx.shards = shards
	idx.frozen = true
	idx.svcs = make(map[string]*svcIndex)
	idx.pending = idx.pending[:0]
	for _, r := range idx.c.replicas {
		if r.Node == "" {
			continue
		}
		idx.noteAdmit(r, idx.c.now)
	}
}

// svc returns (creating if needed) one service's index.
func (idx *replicaIndex) svc(name string) *svcIndex {
	si, ok := idx.svcs[name]
	if !ok {
		si = &svcIndex{
			ready: make([][]*Replica, idx.shards),
			disp:  make([]shardDisp, idx.shards),
			stats: make([]svcShardStats, idx.shards),
		}
		if s, ok := idx.c.services[name]; ok {
			si.bulk = s.Class == ClassBulk
		}
		idx.svcs[name] = si
	}
	return si
}

// addReady appends a matured replica to its shard's ready list. Any
// ready-list change is a placement transition: the dispatch epoch
// bumps so stale shard views and flow caches die lazily.
func (idx *replicaIndex) addReady(r *Replica, shard int) {
	si := idx.svc(r.Service)
	if len(si.ready[shard]) == 0 {
		si.activate(shard)
	}
	si.ready[shard] = append(si.ready[shard], r)
	idx.c.router.bumpEpoch()
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

// noteAdmit indexes a replica the placement scheduler just admitted (or,
// during freeze, an existing placement): pending until ReadyAt, ready
// immediately when its reconfiguration already completed.
func (idx *replicaIndex) noteAdmit(r *Replica, now sim.Time) {
	if !idx.frozen {
		return
	}
	n := idx.c.byID[r.Node]
	if r.ReadyAt > now {
		idx.pending = heapPush(idx.pending, pendingEntry{r: r, node: r.Node, readyAt: r.ReadyAt}, pendingEntry.key)
		return
	}
	if idx.routable(n.state) {
		idx.addReady(r, n.shard)
	}
}

// noteRemove drops a replica leaving a node (eviction, failover). The
// ready list keeps its relative order so routing stays deterministic;
// a pending entry, if any, dies lazily on maturation.
func (idx *replicaIndex) noteRemove(r *Replica, n *Node) {
	if !idx.frozen {
		return
	}
	si, ok := idx.svcs[r.Service]
	if !ok {
		return
	}
	list := si.ready[n.shard]
	for i, have := range list {
		if have == r {
			si.ready[n.shard] = append(list[:i], list[i+1:]...)
			if len(si.ready[n.shard]) == 0 {
				si.deactivate(n.shard)
			}
			idx.c.router.bumpEpoch()
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
func (idx *replicaIndex) noteState(n *Node, from, to State) {
	if !idx.frozen || idx.routable(from) == idx.routable(to) {
		return
	}
	if idx.routable(to) {
		for _, r := range n.Replicas() {
			if r.ReadyAt <= idx.c.now {
				idx.addReady(r, n.shard)
			}
		}
		return
	}
	for _, r := range n.replicas {
		idx.noteRemove(r, n)
	}
}

// mature moves pending replicas whose reconfiguration completed by now
// into their shard's ready list. Runs at control-plane ticks; O(1) when
// nothing is due.
func (idx *replicaIndex) mature(now sim.Time) {
	if !idx.frozen {
		return
	}
	for len(idx.pending) > 0 && idx.pending[0].readyAt <= now {
		var e pendingEntry
		idx.pending, e = heapPop(idx.pending, pendingEntry.key)
		// Stale entries: the replica moved or was evicted before
		// maturing, or its node stopped taking traffic.
		if e.r.Node != e.node || e.r.ReadyAt != e.readyAt {
			continue
		}
		n := idx.c.byID[e.node]
		if !idx.routable(n.state) {
			continue
		}
		idx.addReady(e.r, n.shard)
	}
}

// candidatesOf lists every indexed ready replica of a service across
// shards, for oracle cross-checking against the naive scan.
func (idx *replicaIndex) candidatesOf(svc string) []*Replica {
	si, ok := idx.svcs[svc]
	if !ok {
		return nil
	}
	var out []*Replica
	for _, s := range si.active {
		out = append(out, si.ready[s]...)
	}
	return out
}
