package sim

import "testing"

func TestPipelineLatencyAndThroughput(t *testing.T) {
	clk := NewClock("c", 100) // 10ns
	p := NewPipeline("pipe", clk, 3)
	if p.Latency() != 30*Nanosecond {
		t.Errorf("Latency() = %v, want 30ns", p.Latency())
	}
	// Back-to-back issues exit back-to-back: full throughput.
	e0 := p.IssueBeats(0, 1)
	e1 := p.IssueBeats(0, 1)
	e2 := p.IssueBeats(0, 1)
	if e0 != 30*Nanosecond || e1 != 40*Nanosecond || e2 != 50*Nanosecond {
		t.Errorf("exits = %v %v %v, want 30ns 40ns 50ns", e0, e1, e2)
	}
	if p.NextFree() != 30*Nanosecond {
		t.Errorf("NextFree() = %v, want 30ns (three issue slots used)", p.NextFree())
	}
}

func TestPipelineZeroDepthPassthrough(t *testing.T) {
	clk := NewClock("c", 100)
	p := NewPipeline("wire", clk, 0)
	if p.Latency() != 0 {
		t.Errorf("Latency() = %v, want 0", p.Latency())
	}
	if exit := p.IssueBeats(5*Nanosecond, 1); exit != 10*Nanosecond {
		t.Errorf("IssueBeats(5ns, 1) = %v, want 10ns (edge-aligned)", exit)
	}
}

func TestPipelineIssueBeats(t *testing.T) {
	clk := NewClock("c", 100)
	p := NewPipeline("pipe", clk, 2)
	// 10 beats starting at t=0: last beat enters at cycle 9, exits 2
	// cycles later => 110ns.
	last := p.IssueBeats(0, 10)
	if last != 110*Nanosecond {
		t.Errorf("IssueBeats last exit = %v, want 110ns", last)
	}
	if p.NextFree() != 100*Nanosecond {
		t.Errorf("NextFree() = %v, want 100ns (ten issue slots used)", p.NextFree())
	}
	// Next issue must queue after the 10 beats.
	next := p.IssueBeats(0, 1)
	if next != 120*Nanosecond {
		t.Errorf("Issue after beats = %v, want 120ns", next)
	}
}

func TestPipelineIssueBeatsZero(t *testing.T) {
	clk := NewClock("c", 100)
	p := NewPipeline("pipe", clk, 2)
	if got := p.IssueBeats(0, 0); got != p.Latency() {
		t.Errorf("IssueBeats(0,0) = %v, want %v", got, p.Latency())
	}
	if p.NextFree() != 0 {
		t.Error("IssueBeats(0,0) used an issue slot")
	}
}

func TestStoreAndForwardSerializes(t *testing.T) {
	clk := NewClock("c", 100)
	s := NewStoreAndForward("saf", clk, 3)
	e0 := s.Issue(0)
	e1 := s.Issue(0)
	if e0 != 30*Nanosecond {
		t.Errorf("first exit = %v, want 30ns", e0)
	}
	if e1 != 60*Nanosecond {
		t.Errorf("second exit = %v, want 60ns (serialized)", e1)
	}
	if s.freeAt != e1 {
		t.Errorf("stage free at %v, want %v (busy until the second exit)", s.freeAt, e1)
	}
}

// The pipelined wrapper must sustain N× the store-and-forward rate for
// depth N — the bubble-freedom property the paper claims in §3.2.
func TestPipelineBeatsStoreAndForward(t *testing.T) {
	clk := NewClock("c", 250)
	const depth, items = 4, 1000
	p := NewPipeline("p", clk, depth)
	s := NewStoreAndForward("s", clk, depth)
	var pEnd, sEnd Time
	for i := 0; i < items; i++ {
		pEnd = p.IssueBeats(0, 1)
		sEnd = s.Issue(0)
	}
	// Pipeline: items + depth - 1 cycles. SAF: items * depth cycles.
	if pEnd >= sEnd {
		t.Errorf("pipeline end %v not faster than store-and-forward %v", pEnd, sEnd)
	}
	ratio := float64(sEnd) / float64(pEnd)
	if ratio < float64(depth)*0.9 {
		t.Errorf("speedup %.2f, want about %d", ratio, depth)
	}
}

func TestPipelinePanics(t *testing.T) {
	clk := NewClock("c", 100)
	for name, fn := range map[string]func(){
		"negative depth": func() { NewPipeline("bad", clk, -1) },
		"nil clock":      func() { NewPipeline("bad", nil, 1) },
		"saf zero depth": func() { NewStoreAndForward("bad", clk, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
