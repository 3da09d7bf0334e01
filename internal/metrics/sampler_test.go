package metrics_test

import (
	"testing"

	"harmonia/internal/metrics"
	"harmonia/internal/sim"
)

func TestSamplerWindowedRates(t *testing.T) {
	eng := sim.NewEngine()
	counter := int64(0)
	s, err := metrics.NewSampler(eng, sim.Second, 3, func() int64 { return counter })
	if err != nil {
		t.Fatal(err)
	}
	// 10 events land in window 1, 30 more in window 2, none in window 3.
	eng.After(sim.Second/2, func() { counter += 10 })
	eng.After(sim.Second+sim.Second/2, func() { counter += 30 })
	eng.Run() // the sampler schedules exactly its windows
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	want := []float64{10, 30, 0}
	for i, w := range want {
		if got[i].Rate != w {
			t.Errorf("window %d rate = %v, want %v", i, got[i].Rate, w)
		}
	}
	if last := got[len(got)-1].Rate; last != 0 {
		t.Errorf("last rate = %v, want 0", last)
	}
}

func TestSamplerCounterReset(t *testing.T) {
	eng := sim.NewEngine()
	counter := int64(0)
	s, err := metrics.NewSampler(eng, sim.Second, 2, func() int64 { return counter })
	if err != nil {
		t.Fatal(err)
	}
	eng.After(sim.Second/2, func() { counter = 100 })
	// The source restarts between windows: the cumulative counter
	// drops from 100 to 7. A naive delta would report -93/s; the
	// sampler must instead treat the post-reset value as the window's
	// increment.
	eng.After(sim.Second+sim.Second/2, func() { counter = 7 })
	eng.Run()
	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("samples = %d, want 2", len(got))
	}
	if got[0].Rate != 100 {
		t.Errorf("window 0 rate = %v, want 100", got[0].Rate)
	}
	if got[1].Rate != 7 {
		t.Errorf("window 1 rate after reset = %v, want 7", got[1].Rate)
	}
	if got[1].Rate < 0 {
		t.Errorf("negative rate leaked through a counter reset: %v", got[1].Rate)
	}
}
