package metrics

import (
	"math/rand"
	"testing"

	"harmonia/internal/sim"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := sim.Time(0); v < histSub; v++ {
		h.Add(v)
	}
	if h.Count() != histSub {
		t.Fatalf("count = %d, want %d", h.Count(), histSub)
	}
	// Values below histSub land in exact unit buckets: percentiles are
	// exact there.
	if got := h.Percentile(50); got != histSub/2-1 {
		t.Errorf("P50 = %v, want %v", got, histSub/2-1)
	}
	if histMin(&h) != 0 || h.Max() != histSub-1 {
		t.Errorf("min/max = %v/%v, want 0/%v", histMin(&h), h.Max(), histSub-1)
	}
}

func TestHistogramPercentileWithinResolution(t *testing.T) {
	var h Histogram
	l := &Latencies{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		// Latency-shaped samples: a µs-scale body with a heavy tail.
		v := sim.Time(500 + rng.Intn(5_000))
		if rng.Intn(100) == 0 {
			v *= 20
		}
		h.Add(v)
		l.Add(v)
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9} {
		exact := l.Percentile(p)
		got := h.Percentile(p)
		// Log-scale buckets with 16 sub-buckets per octave bound the
		// relative error at 1/16, and the reported value is the bucket
		// lower bound, so it never exceeds the exact percentile.
		if got > exact {
			t.Errorf("P%v = %v above exact %v", p, got, exact)
		}
		if float64(got) < float64(exact)*(1-1.0/histSub)-1 {
			t.Errorf("P%v = %v more than 1/%d below exact %v", p, got, histSub, exact)
		}
	}
	if histMin(&h) != l.Min() || h.Max() != l.Max() {
		t.Errorf("min/max = %v/%v, want exact %v/%v", histMin(&h), h.Max(), l.Min(), l.Max())
	}
	if histMean(&h) != l.Mean() {
		t.Errorf("mean = %v, want exact %v", histMean(&h), l.Mean())
	}
}

func TestHistogramMergeExact(t *testing.T) {
	var whole, a, b Histogram
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		v := sim.Time(rng.Intn(1_000_000))
		whole.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	// Merge in either order: identical to one stream.
	var m Histogram
	m.Merge(&b)
	m.Merge(&a)
	if m != whole {
		t.Error("merged histogram differs from single-stream histogram")
	}
	m.Merge(nil) // no-op
	if m != whole {
		t.Error("nil merge mutated the histogram")
	}
}

func TestHistogramZeroAndReset(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || histMean(&h) != 0 || histMin(&h) != 0 || h.Max() != 0 {
		t.Error("empty histogram reports non-zero stats")
	}
	h.Add(-5) // clamped into bucket 0
	h.Add(1 << 40)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Percentile(99) != 0 {
		t.Error("reset histogram retains samples")
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bucket boundaries must be monotone.
	prev := sim.Time(-1)
	for b := 0; b < histBuckets; b++ {
		lo := histLower(b)
		if lo <= prev && b > 0 {
			t.Fatalf("bucket %d lower bound %v not above bucket %d's %v", b, lo, b-1, prev)
		}
		if lo >= 0 && histBucket(lo) != b {
			t.Fatalf("histBucket(histLower(%d)) = %d", b, histBucket(lo))
		}
		prev = lo
	}
	// The largest representable value stays in range.
	if got := histBucket(sim.Time(1<<62) + (1<<62 - 1)); got >= histBuckets {
		t.Fatalf("max value bucket %d out of range %d", got, histBuckets)
	}
}

func TestLatenciesMinMaxIncremental(t *testing.T) {
	l := &Latencies{}
	// Min/Max never sort: interleave queries with adds and check they
	// track incrementally.
	l.Add(50)
	if l.Min() != 50 || l.Max() != 50 {
		t.Errorf("min/max = %v/%v after one sample, want 50/50", l.Min(), l.Max())
	}
	l.Add(10)
	l.Add(90)
	if l.Min() != 10 || l.Max() != 90 {
		t.Errorf("min/max = %v/%v, want 10/90", l.Min(), l.Max())
	}
	if l.sorted {
		t.Error("Min/Max forced a sort of the sample slice")
	}
	if got := l.Percentile(50); got != 50 {
		t.Errorf("P50 = %v, want 50", got)
	}
}

func TestHistogramCumBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Time{3, 3, 40, 1000, 1000, 1000} {
		h.Add(v)
	}
	var uppers []sim.Time
	var cums []int64
	h.CumBuckets(func(upper sim.Time, cum int64) {
		uppers = append(uppers, upper)
		cums = append(cums, cum)
	})
	if len(cums) == 0 {
		t.Fatal("CumBuckets visited nothing")
	}
	for i := 1; i < len(cums); i++ {
		if cums[i] <= cums[i-1] || uppers[i] <= uppers[i-1] {
			t.Fatalf("not strictly increasing: uppers=%v cums=%v", uppers, cums)
		}
	}
	if cums[len(cums)-1] != h.Count() {
		t.Errorf("last cumulative %d != count %d", cums[len(cums)-1], h.Count())
	}
	if last := uppers[len(uppers)-1]; last != h.Max() {
		t.Errorf("last upper %v clamps to max %v", last, h.Max())
	}
	// Every recorded value is covered by the bucket it fell into: the
	// first cumulative bucket with upper >= 3 holds both 3s.
	for i, u := range uppers {
		if u >= 3 {
			if cums[i] < 2 {
				t.Errorf("bucket upper %v holds %d, want >= 2", u, cums[i])
			}
			break
		}
		_ = i
	}
	// An empty histogram visits nothing.
	var empty Histogram
	empty.CumBuckets(func(sim.Time, int64) { t.Error("empty histogram visited a bucket") })
}

// histMin and histMean read the exact extremes and average a histogram
// keeps beside its buckets.
func histMin(h *Histogram) sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.min
}

func histMean(h *Histogram) sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}
