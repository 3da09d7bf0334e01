package fleet

import (
	"sort"

	"harmonia/internal/sim"
)

// The cluster-wide reconfiguration budget bounds how many partial
// bitstream loads the fleet performs concurrently. Without it a mass
// failover models infinite bitstream-distribution bandwidth: a rack
// power event re-places dozens of replicas and every replacement slot
// reconfigures in parallel. Real fleets serve bitstreams from a
// distribution tier with finite fan-out, so the budget serializes the
// overflow: a load past the limit queues until the earliest in-flight
// load completes, and its slot reconfiguration starts then.

// LoadClass is a PR load's priority class in the reconfiguration
// budget's grant queue.
type LoadClass string

// Load priority classes. Failover re-placements are granted
// immediately — past the cap they chain behind the earliest in-flight
// completions — while elective loads (scale-outs, rebalances) wait on
// the cluster's elective queue and start only when the budget has a
// slot free at a control-plane barrier. A failover requested while
// electives wait therefore starts ahead of every one of them: the
// budget's named headroom is preemptive by construction.
const (
	LoadFailover LoadClass = "failover"
	LoadElective LoadClass = "elective"
)

// LoadEvent records one budget grant for the chaos drill's queue-depth
// series: the load was requested at ReqAt, started at Start (later when
// the budget queued it) and held bitstream bandwidth until Done.
type LoadEvent struct {
	ReqAt sim.Time
	Start sim.Time
	Done  sim.Time
	Node  string
	// Class is the grant's priority class; preemption is provable from
	// the log alone (an elective with an earlier ReqAt but a later Start
	// than a failover was preempted by it).
	Class LoadClass
	// OK is false when the load failed every retry (no tenant admitted).
	OK bool
}

// reconfigBudget is the min-heap of in-flight load completion times.
type reconfigBudget struct {
	// limit is the concurrent-load cap (0 = unlimited: grants are still
	// recorded, so an unbudgeted run's true concurrency is measurable).
	limit int
	// inflight holds the completion times of granted loads whose slot no
	// queued load has inherited yet, min-heap.
	inflight []sim.Time
	queued   int
	events   []LoadEvent
	// preempted counts failover grants issued while elective loads were
	// waiting on the cluster's elective queue — each one jumped the
	// whole queue.
	preempted int
}

// reset installs a new limit and clears the grant history, so drill
// warmup placements do not contaminate the storm's measurements. Loads
// still in flight are preserved: changing the cap mid-run must not
// forget bandwidth already committed, or the fleet would exceed the
// new limit while the forgotten loads drain (completed entries age out
// of the heap on the next acquire anyway).
func (b *reconfigBudget) reset(limit int) {
	b.limit = limit
	b.clearHistory()
}

// clearHistory drops the grant log and its derived counters without
// touching the in-flight heap.
func (b *reconfigBudget) clearHistory() {
	b.queued = 0
	b.preempted = 0
	b.events = nil
}

// acquire grants one load slot: it returns the earliest time the load
// may start — now when under the limit, otherwise the completion time
// of the load whose slot it inherits. Each pop hands exactly one
// not-yet-inherited completion to exactly one queued load, so loads
// requested on the same control-plane tick chain correctly: the heap
// must not be pruned against the advanced start, or a completion still
// in the future at the request time would free a slot twice.
func (b *reconfigBudget) acquire(now sim.Time) sim.Time {
	start := now
	b.prune(now)
	if b.limit > 0 {
		for len(b.inflight) >= b.limit {
			var done sim.Time
			if b.inflight, done = heapPop(b.inflight, loadDone); done > start {
				start = done
			}
		}
	}
	return start
}

// commit records the granted load's real span. The caller pairs every
// acquire with exactly one commit, on the serial control-plane path.
// Failed loads (ok=false) with done > start still push onto the heap:
// a load that fails every retry occupied bitstream bandwidth until its
// Done, so later grants must chain behind it. A zero-span grant
// (done == start, the load never reached the distribution tier) holds
// no bandwidth and is not counted as queued even when the budget
// advanced its start — it never waited on the wire.
func (b *reconfigBudget) commit(reqAt, start, done sim.Time, node string, class LoadClass, ok bool) {
	if done > start {
		b.inflight = heapPush(b.inflight, done, loadDone)
		if start > reqAt {
			b.queued++
		}
	}
	b.events = append(b.events, LoadEvent{ReqAt: reqAt, Start: start, Done: done, Node: node, Class: class, OK: ok})
}

// free reports whether a load granted now would start immediately,
// without consuming a slot. The elective drain uses it to admit queued
// scale-out loads only into genuinely free headroom.
func (b *reconfigBudget) free(now sim.Time) bool {
	b.prune(now)
	return b.limit == 0 || len(b.inflight) < b.limit
}

// prune drops loads that completed by now.
func (b *reconfigBudget) prune(now sim.Time) {
	for len(b.inflight) > 0 && b.inflight[0] <= now {
		b.inflight, _ = heapPop(b.inflight, loadDone)
	}
}

// loadDone keys the in-flight heap: each entry is its own completion
// time.
func loadDone(t sim.Time) sim.Time { return t }

// heapPush and heapPop keep a binary min-heap ordered by key, the one
// heap shape shared by the budget's load completions and the replica
// index's pending readiness times. Equal keys pop in a fixed order:
// push stops when the parent is <= the child, and pop descends to the
// right child only when it is strictly smaller. Items stay by value
// (container/heap would box each one in an interface).
func heapPush[T any](h []T, v T, key func(T) sim.Time) []T {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if key(h[parent]) <= key(h[i]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop[T any](h []T, key func(T) sim.Time) ([]T, T) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	var zero T
	h[n] = zero // drop the vacated slot's references
	h = h[:n]
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if right := least + 1; right < n && key(h[right]) < key(h[least]) {
			least = right
		}
		if key(h[i]) <= key(h[least]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return h, top
}

// SetLoadBudget installs a fleet-wide concurrent PR-load cap (0 removes
// it) and resets the budget's grant history and peak tracking.
func (c *Cluster) SetLoadBudget(limit int) { c.budget.reset(limit) }

// peakConcurrent sweeps the grant log and reports the maximum number of
// load spans overlapping any instant — the ground truth the chaos drill
// gates against the cap, reconstructed from the events rather than read
// off the heap's internal state. A load ending exactly when another
// starts does not overlap it (the slot was inherited).
func peakConcurrent(events []LoadEvent) int {
	var starts, dones []sim.Time
	for _, e := range events {
		if e.Done > e.Start {
			starts = append(starts, e.Start)
			dones = append(dones, e.Done)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	sort.Slice(dones, func(i, j int) bool { return dones[i] < dones[j] })
	cur, peak, d := 0, 0, 0
	for _, s := range starts {
		for d < len(dones) && dones[d] <= s {
			cur--
			d++
		}
		cur++
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// LoadFailures sums injected bitstream-load failures across every
// node's tenancy manager.
func (c *Cluster) LoadFailures() int64 {
	var total int64
	for _, n := range c.nodes {
		if n.Tenants != nil {
			total += n.Tenants.LoadFailures()
		}
	}
	return total
}

// LoadBudgetPeak reports the highest concurrent PR-load count observed
// since the budget was last reset.
func (c *Cluster) LoadBudgetPeak() int { return peakConcurrent(c.budget.events) }

// LoadsQueued reports how many loads the budget delayed.
func (c *Cluster) LoadsQueued() int { return c.budget.queued }

// LoadsPreempted reports how many failover grants jumped the elective
// queue.
func (c *Cluster) LoadsPreempted() int { return c.budget.preempted }

// LoadEvents returns every budget grant since the last reset, in grant
// order.
func (c *Cluster) LoadEvents() []LoadEvent {
	return append([]LoadEvent(nil), c.budget.events...)
}
