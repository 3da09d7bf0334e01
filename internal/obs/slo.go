package obs

import "fmt"

// SLO error-budget accounting. A tracker owns one service's rolling
// multi-resolution windows of availability error and p99-violation
// fraction. The fleet advances every tracker exactly once per
// heartbeat barrier on the serial control-plane path, so window state
// — and everything derived from it (burn rates, alert transitions) —
// is byte-identical across worker counts and batch quanta by
// construction. Nothing here touches the packet hot path: the caller
// reads its per-tick deltas from the same shard counters the metrics
// registry reads through.

// SLOWindow is one rolling accounting window, sized in heartbeat
// ticks. Multi-window burn alerting pairs a short window (fast spike
// detection) with a long one (sustained-burn confirmation).
type SLOWindow struct {
	Name  string
	Ticks int
}

// sloRing is a fixed-length ring of per-tick samples with running
// sums, so Advance and every rate query are O(1).
type sloRing struct {
	good    []int64
	total   []int64
	viol    []int64 // 1 when the tick's p99 breached its target
	head    int
	fill    int
	sumGood int64
	sumTot  int64
	sumViol int64
}

func (w *sloRing) push(good, total, viol int64) {
	n := len(w.good)
	if w.fill == n {
		w.sumGood -= w.good[w.head]
		w.sumTot -= w.total[w.head]
		w.sumViol -= w.viol[w.head]
	} else {
		w.fill++
	}
	w.good[w.head], w.total[w.head], w.viol[w.head] = good, total, viol
	w.sumGood += good
	w.sumTot += total
	w.sumViol += viol
	w.head++
	if w.head == n {
		w.head = 0
	}
}

// SLOTracker accounts one service's error budget across a set of
// rolling windows against an availability target.
type SLOTracker struct {
	target float64 // availability objective in [0, 1)
	rings  []sloRing
}

// NewSLOTracker builds a tracker for an availability objective (e.g.
// 0.999) over the given windows. A zero target means the service has
// no availability SLO; burn then degenerates to the raw error rate.
func NewSLOTracker(availability float64, wins []SLOWindow) *SLOTracker {
	if availability < 0 || availability >= 1 {
		panic(fmt.Sprintf("obs: availability objective %v outside [0, 1)", availability))
	}
	if len(wins) == 0 {
		panic("obs: SLO tracker needs at least one window")
	}
	t := &SLOTracker{target: availability, rings: make([]sloRing, len(wins))}
	for i, w := range wins {
		if w.Ticks <= 0 {
			panic(fmt.Sprintf("obs: SLO window %q has %d ticks", w.Name, w.Ticks))
		}
		t.rings[i] = sloRing{
			good:  make([]int64, w.Ticks),
			total: make([]int64, w.Ticks),
			viol:  make([]int64, w.Ticks),
		}
	}
	return t
}

// Advance folds one heartbeat tick's demand into every window: good
// requests served, total requests offered, and whether the service's
// windowed p99 breached its latency target during the tick. Must be
// called exactly once per barrier, on the serial path.
func (t *SLOTracker) Advance(good, total int64, p99Violated bool) {
	var v int64
	if p99Violated {
		v = 1
	}
	for i := range t.rings {
		t.rings[i].push(good, total, v)
	}
}

// ErrorRate reports the windowed fraction of offered requests that
// were not served (0 when the window saw no demand).
func (t *SLOTracker) ErrorRate(win int) float64 {
	r := &t.rings[win]
	if r.sumTot == 0 {
		return 0
	}
	return float64(r.sumTot-r.sumGood) / float64(r.sumTot)
}

// BurnRate reports how many times faster than the objective allows
// the window is consuming error budget: windowed error rate divided
// by the budget fraction (1 - availability). A burn of 1 exactly
// exhausts budget at the objective's rate; sustained burn above 1
// will violate the SLO.
func (t *SLOTracker) BurnRate(win int) float64 {
	return t.ErrorRate(win) / (1 - t.target)
}

// P99ViolationFraction reports the fraction of accounted ticks in the
// window whose p99 breached the latency target.
func (t *SLOTracker) P99ViolationFraction(win int) float64 {
	r := &t.rings[win]
	if r.fill == 0 {
		return 0
	}
	return float64(r.sumViol) / float64(r.fill)
}
