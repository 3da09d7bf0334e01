package sim

import "fmt"

// Pipeline models a fully pipelined datapath stage: fixed latency of
// depth cycles, one item accepted per cycle with no bubbles. This is the
// property the paper leans on for its interface wrappers ("fully
// pipelined sequential translation logic ... operates without generating
// bubbles and consumes a few fixed clock cycles", §3.2): throughput is
// preserved exactly while latency grows by depth cycles.
type Pipeline struct {
	clk   *Clock
	depth int64

	// nextIssue is the earliest time the next item may enter.
	nextIssue Time
}

// NewPipeline returns a pipeline of depth stages in clock domain clk.
func NewPipeline(name string, clk *Clock, depth int) *Pipeline {
	if depth < 0 {
		panic(fmt.Sprintf("sim: pipeline %q depth %d must be >= 0", name, depth))
	}
	if clk == nil {
		panic(fmt.Sprintf("sim: pipeline %q requires a clock", name))
	}
	return &Pipeline{clk: clk, depth: int64(depth)}
}

// Latency reports the fixed traversal latency.
func (p *Pipeline) Latency() Time { return p.clk.CyclesTime(p.depth) }

// NextFree reports the earliest time a new item may issue — the
// backlog frontier used for queue-occupancy and tail-drop decisions.
func (p *Pipeline) NextFree() Time { return p.nextIssue }

// IssueBeats admits n consecutive beats starting at now (or at the
// pipeline's next free issue slot, whichever is later) and returns the
// exit time of the final beat. Beats issue one per cycle, so
// back-to-back beats exit back-to-back, preserving full throughput.
func (p *Pipeline) IssueBeats(now Time, n int64) (lastExit Time) {
	if n <= 0 {
		return p.clk.NextEdge(now) + p.Latency()
	}
	t := p.clk.NextEdge(now)
	if t < p.nextIssue {
		t = p.nextIssue
	}
	p.nextIssue = t + Time(n)*p.clk.Period()
	return t + Time(n-1)*p.clk.Period() + p.Latency()
}

// StoreAndForward models the non-pipelined alternative used by the
// ablation benchmarks: each item occupies the stage exclusively for
// depth cycles, so throughput collapses to one item per depth cycles.
type StoreAndForward struct {
	clk    *Clock
	depth  int64
	freeAt Time
}

// NewStoreAndForward returns a store-and-forward stage of the given
// occupancy in cycles.
func NewStoreAndForward(name string, clk *Clock, depth int) *StoreAndForward {
	if depth <= 0 {
		panic(fmt.Sprintf("sim: store-and-forward %q depth %d must be positive", name, depth))
	}
	return &StoreAndForward{clk: clk, depth: int64(depth)}
}

// Issue admits an item and returns its exit time. The stage is busy until
// that exit time; subsequent items queue behind it.
func (s *StoreAndForward) Issue(now Time) (exit Time) {
	t := s.clk.NextEdge(now)
	if t < s.freeAt {
		t = s.freeAt
	}
	exit = t + s.clk.CyclesTime(s.depth)
	s.freeAt = exit
	return exit
}
