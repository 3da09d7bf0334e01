package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOForEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp events ran out of order at %d: %v...", i, got[:i+1])
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Errorf("trace = %v, want [10 15]", trace)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var ran Time = -1
	e.At(100, func() {
		e.At(50, func() { ran = e.Now() }) // in the past: clamps to 100
	})
	e.Run()
	if ran != 100 {
		t.Errorf("past-scheduled event ran at %d, want 100", ran)
	}
}

func TestEngineMonotonicTime(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 1000)
	for i := range times {
		times[i] = Time(rng.Int63n(1_000_000))
	}
	var observed []Time
	for _, at := range times {
		e.At(at, func() { observed = append(observed, e.Now()) })
	}
	e.Run()
	if !sort.SliceIsSorted(observed, func(i, j int) bool { return observed[i] < observed[j] }) {
		t.Error("engine time went backwards")
	}
	if len(observed) != 1000 {
		t.Errorf("ran %d events, want 1000", len(observed))
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step() on empty engine reported true")
	}
}

// BenchmarkEngineSchedule measures the hot scheduling path: push one
// event into a populated heap and pop/run the earliest. Events are
// stored by value, so a schedule costs no per-event allocation beyond
// the amortized heap growth.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	// Keep a steady backlog so push/pop exercise a realistic heap.
	for i := 0; i < 1024; i++ {
		e.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(i%1024)+1, fn)
		e.Step()
	}
}
