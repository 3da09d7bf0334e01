package fleet

import (
	"math/rand"
	"slices"
	"testing"

	"harmonia/internal/sim"
)

// TestBudgetBoundsConcurrency drives acquire/commit pairs through a
// capped budget and checks the invariant the chaos drill gates on:
// concurrent in-flight loads never exceed the limit, and the overflow
// queues behind the earliest completion.
func TestBudgetBoundsConcurrency(t *testing.T) {
	b := &reconfigBudget{limit: 2}
	const dur = 100 * sim.Microsecond
	// Four loads requested at the same instant: two start now, the
	// third inherits the first completion, the fourth the second.
	var starts []sim.Time
	for i := 0; i < 4; i++ {
		start := b.acquire(0)
		b.commit(0, start, start+dur, "n", LoadFailover, true)
		starts = append(starts, start)
	}
	want := []sim.Time{0, 0, dur, dur}
	for i, s := range starts {
		if s != want[i] {
			t.Fatalf("load %d started at %v, want %v (all: %v)", i, s, want[i], starts)
		}
	}
	if got := peakConcurrent(b.events); got != 2 {
		t.Errorf("peak overlap = %d, want 2 (limit held)", got)
	}
	if b.queued != 2 {
		t.Errorf("queued = %d, want 2", b.queued)
	}
	for i, e := range b.events {
		if got := e.Start > e.ReqAt; got != (i >= 2) {
			t.Errorf("event %d queued = %v, want %v", i, got, i >= 2)
		}
	}
}

// TestBudgetUnlimitedRecordsPeak checks that a zero limit never delays
// a load but still measures true concurrency — how the drill proves the
// unbudgeted fleet exceeded the cap.
func TestBudgetUnlimitedRecordsPeak(t *testing.T) {
	b := &reconfigBudget{}
	const dur = 50 * sim.Microsecond
	for i := 0; i < 5; i++ {
		start := b.acquire(0)
		if start != 0 {
			t.Fatalf("unlimited budget delayed load %d to %v", i, start)
		}
		b.commit(0, start, start+dur, "n", LoadFailover, true)
	}
	if got := peakConcurrent(b.events); got != 5 {
		t.Errorf("peak overlap = %d, want 5", got)
	}
	if b.queued != 0 {
		t.Errorf("queued = %d, want 0", b.queued)
	}
}

// TestBudgetPrunesCompletedLoads checks that a load requested after the
// in-flight set drained starts immediately.
func TestBudgetPrunesCompletedLoads(t *testing.T) {
	b := &reconfigBudget{limit: 1}
	s1 := b.acquire(0)
	b.commit(0, s1, 10*sim.Microsecond, "a", LoadFailover, true)
	// Same-time request queues behind the first completion...
	if s2 := b.acquire(0); s2 != 10*sim.Microsecond {
		t.Fatalf("second load started at %v, want 10µs", s2)
	} else {
		b.commit(0, s2, s2+10*sim.Microsecond, "b", LoadFailover, true)
	}
	// ...but a request after both completed starts immediately.
	if s3 := b.acquire(30 * sim.Microsecond); s3 != 30*sim.Microsecond {
		t.Fatalf("post-drain load started at %v, want 30µs", s3)
	}
}

// TestBudgetResetClearsHistory checks SetLoadBudget's contract: warmup
// grants do not contaminate the storm's peak/queue counters, but loads
// still in flight at the reset keep holding their bandwidth.
func TestBudgetResetClearsHistory(t *testing.T) {
	b := &reconfigBudget{}
	for i := 0; i < 3; i++ {
		s := b.acquire(0)
		b.commit(0, s, 100, "n", LoadFailover, true)
	}
	b.reset(2)
	if b.limit != 2 || b.queued != 0 || len(b.events) != 0 {
		t.Fatalf("reset left history: %+v", b)
	}
	if len(b.inflight) != 3 {
		t.Fatalf("reset dropped the in-flight heap: %d entries, want 3", len(b.inflight))
	}
	if got := peakConcurrent(b.events); got != 0 {
		t.Errorf("peak overlap after reset = %d, want 0", got)
	}
}

// TestBudgetResetPreservesInflight pins the mid-run cap-change bug: a
// budget with loads still in flight must honor them against the new
// limit, or the fleet exceeds the cap while the forgotten loads drain.
func TestBudgetResetPreservesInflight(t *testing.T) {
	b := &reconfigBudget{limit: 4}
	const dur = 100 * sim.Microsecond
	for i := 0; i < 3; i++ {
		s := b.acquire(0)
		b.commit(0, s, s+dur, "n", LoadFailover, true)
	}
	// Tighten the cap to 2 while 3 loads are mid-flight. The next
	// grant must chain behind an in-flight completion, not start
	// immediately as if the heap were empty.
	b.reset(2)
	if s := b.acquire(0); s != dur {
		t.Fatalf("post-reset load started at %v, want %v (chained behind in-flight)", s, dur)
	}
	// Once the old loads drain, grants flow again under the new limit.
	if s := b.acquire(2 * dur); s != 2*dur {
		t.Fatalf("post-drain load started at %v, want %v", s, 2*dur)
	}
}

// TestBudgetFailedLoadHoldsBandwidth pins the failed-load accounting: a
// load that fails every retry (OK=false) occupied the bitstream
// distribution tier until its Done, so a later grant must chain behind
// it exactly as behind a success.
func TestBudgetFailedLoadHoldsBandwidth(t *testing.T) {
	b := &reconfigBudget{limit: 1}
	const busy = 80 * sim.Microsecond
	s := b.acquire(0)
	b.commit(0, s, s+busy, "n", LoadFailover, false) // failed after retries
	if got := b.acquire(0); got != busy {
		t.Fatalf("grant after failed load started at %v, want %v", got, busy)
	}
	if b.events[0].OK {
		t.Fatal("failed load recorded OK=true")
	}
}

// TestBudgetQueuedNotDoubleCounted pins LoadsQueued semantics: one
// failed load is one grant with one span — its internal retries never
// reach the budget — and a zero-span grant whose start the budget
// advanced is not "queued" (it never held the wire, so nothing waited).
func TestBudgetQueuedNotDoubleCounted(t *testing.T) {
	b := &reconfigBudget{limit: 1}
	const dur = 50 * sim.Microsecond
	s1 := b.acquire(0)
	b.commit(0, s1, s1+dur, "a", LoadFailover, true)
	// Queued behind s1, then failed after retries: one grant, one span,
	// one queued count — the retries inside the span are invisible here.
	s2 := b.acquire(0)
	b.commit(0, s2, s2+dur, "b", LoadFailover, false)
	// Queued behind s2, then failed instantly (non-LoadError admission):
	// the budget advanced its start but it consumed no bandwidth, so it
	// does not count as queued.
	s3 := b.acquire(0)
	b.commit(0, s3, s3, "c", LoadFailover, false)
	if b.queued != 1 {
		t.Fatalf("queued = %d, want 1 (zero-span grant must not count)", b.queued)
	}
	if got := peakConcurrent(b.events); got != 1 {
		t.Errorf("peak overlap = %d, want 1", got)
	}
}

// TestBudgetZeroDurationLoadHoldsNothing checks that a failed
// instantaneous admission (non-LoadError path) does not occupy a slot.
func TestBudgetZeroDurationLoadHoldsNothing(t *testing.T) {
	b := &reconfigBudget{limit: 1}
	s := b.acquire(0)
	b.commit(0, s, s, "n", LoadFailover, false) // failed admission, no span
	if got := b.acquire(0); got != 0 {
		t.Fatalf("zero-duration load blocked the next acquire until %v", got)
	}
}

// TestBudgetSameTickChainHoldsLimit stresses the mass-failover shape —
// many loads requested on the same control-plane tick — and checks the
// true span overlap never exceeds the cap (the regression a heap pruned
// against the advanced start would reintroduce).
func TestBudgetSameTickChainHoldsLimit(t *testing.T) {
	b := &reconfigBudget{limit: 3}
	for i := 0; i < 20; i++ {
		start := b.acquire(0)
		dur := sim.Time(i%4+1) * 10 * sim.Microsecond
		b.commit(0, start, start+dur, "n", LoadFailover, true)
	}
	if got := peakConcurrent(b.events); got > 3 {
		t.Fatalf("true overlap %d exceeds limit 3", got)
	}
	if b.queued != 17 {
		t.Errorf("queued = %d, want 17 (first 3 start immediately)", b.queued)
	}
}

// TestHeapPopsInKeyOrder drives the shared min-heap with random pushes
// and pops, keys drawn from a small range so ties are common: every pop
// returns the least key held, so a drain pops keys in non-decreasing
// order, and the vacated slot drops its reference.
func TestHeapPopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := &Replica{}
	var h []pendingEntry
	var ref []sim.Time // the keys held, sorted
	pop := func() sim.Time {
		var e pendingEntry
		h, e = heapPop(h, pendingEntry.key)
		if e.readyAt != ref[0] {
			t.Fatalf("popped %v, want the least key held %v", e.readyAt, ref[0])
		}
		if h[:len(h)+1][len(h)].r != nil {
			t.Fatal("pop left a reference in the vacated slot")
		}
		ref = ref[1:]
		return e.readyAt
	}
	for i := 0; i < 5000; i++ {
		if len(h) > 0 && rng.Intn(3) == 0 {
			pop()
			continue
		}
		k := sim.Time(rng.Intn(64))
		h = heapPush(h, pendingEntry{r: r, readyAt: k}, pendingEntry.key)
		j, _ := slices.BinarySearch(ref, k)
		ref = slices.Insert(ref, j, k)
	}
	for last := sim.Time(-1); len(h) > 0; {
		k := pop()
		if k < last {
			t.Fatalf("drain popped %v after %v", k, last)
		}
		last = k
	}
}
