package metrics

import (
	"strings"
	"testing"

	"harmonia/internal/sim"
)

func TestLatencies(t *testing.T) {
	var l Latencies
	if l.Mean() != 0 || l.Percentile(99) != 0 || l.Max() != 0 || l.Min() != 0 {
		t.Error("empty latencies should report zero")
	}
	for i := 1; i <= 100; i++ {
		l.Add(sim.Time(i) * sim.Nanosecond)
	}
	if l.Count() != 100 {
		t.Errorf("Count = %d", l.Count())
	}
	if got := l.Percentile(50); got != 50*sim.Nanosecond {
		t.Errorf("P50 = %v", got)
	}
	if got := l.Percentile(99); got != 99*sim.Nanosecond {
		t.Errorf("P99 = %v", got)
	}
	if got := l.Mean(); got != sim.Time(50500)*sim.Picosecond*1000/1000 {
		// mean of 1..100 ns = 50.5ns
		if got != sim.Time(50500)*sim.Picosecond {
			t.Errorf("Mean = %v", got)
		}
	}
	if l.Max() != 100*sim.Nanosecond || l.Min() != sim.Nanosecond {
		t.Errorf("Max/Min = %v/%v", l.Max(), l.Min())
	}
	// Percentile clamps.
	if l.Percentile(0.0001) != sim.Nanosecond {
		t.Error("tiny percentile should clamp to first sample")
	}
	if l.Percentile(100) != 100*sim.Nanosecond {
		t.Error("P100 should be max")
	}
}

func TestGbpsAndRate(t *testing.T) {
	if got := Gbps(125, sim.Microsecond); got != 1 {
		t.Errorf("Gbps = %v, want 1", got)
	}
	if Gbps(100, 0) != 0 || Rate(5, 0) != 0 {
		t.Error("zero elapsed should report zero")
	}
	if got := Rate(1_000_000, sim.Second); got != 1e6 {
		t.Errorf("Rate = %v", got)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "native", XLabel: "pkt", YLabel: "gbps"}
	s.Add(64, 10)
	s.Add(128, 20)
	if y, ok := s.Y(128); !ok || y != 20 {
		t.Errorf("Y(128) = %v, %v", y, ok)
	}
	if _, ok := s.Y(999); ok {
		t.Error("missing x should report !ok")
	}
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{ID: "fig10a", Title: "MAC wrapper"}
	a := &Series{Label: "native", XLabel: "pktB"}
	a.Add(64, 76.2)
	a.Add(1024, 98.1)
	b := &Series{Label: "wrapped"}
	b.Add(64, 76.2)
	f.Series = append(f.Series, a, b)
	out := f.String()
	for _, want := range []string{"fig10a", "native", "wrapped", "76.2", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	if s, ok := f.Find("wrapped"); !ok || s != b {
		t.Error("Find failed")
	}
	if _, ok := f.Find("zzz"); ok {
		t.Error("Find(zzz) should fail")
	}
	empty := &Figure{ID: "x", Title: "empty"}
	if !strings.Contains(empty.String(), "empty") {
		t.Error("empty figure should still render header")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "tab3", Title: "Device support", Columns: []string{"Device", "Vitis", "Harmonia"}}
	if err := tab.AddRow("Intel FPGAs", "no", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddRow("short"); err == nil {
		t.Error("mismatched row accepted")
	}
	out := tab.String()
	for _, want := range []string{"tab3", "Device", "Intel FPGAs", "yes"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSamplerWindowedRates(t *testing.T) {
	eng := sim.NewEngine()
	// A producer incrementing 10 units per microsecond, via events.
	var counter int64
	var produce func()
	produced := 0
	produce = func() {
		counter += 10
		produced++
		if produced < 100 {
			eng.After(sim.Microsecond, produce)
		}
	}
	eng.After(sim.Microsecond, produce)

	s, err := NewSampler(eng, 10*sim.Microsecond, 9, func() int64 { return counter })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	samples := s.Samples()
	if len(samples) != 9 {
		t.Fatalf("samples = %d, want 9", len(samples))
	}
	// Steady state: 10 units/us = 1e7 units/s per window.
	for i, w := range samples[1:] {
		if w.Rate < 0.9e7 || w.Rate > 1.1e7 {
			t.Errorf("window %d rate = %g, want ~1e7", i+1, w.Rate)
		}
	}
}

func TestSamplerValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewSampler(nil, sim.Microsecond, 1, func() int64 { return 0 }); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewSampler(eng, 0, 1, func() int64 { return 0 }); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewSampler(eng, sim.Microsecond, 0, func() int64 { return 0 }); err == nil {
		t.Error("zero windows accepted")
	}
	if _, err := NewSampler(eng, sim.Microsecond, 1, nil); err == nil {
		t.Error("nil reader accepted")
	}
}

func TestSamplerIdleWindowsReadZero(t *testing.T) {
	eng := sim.NewEngine()
	var counter int64
	s, _ := NewSampler(eng, sim.Microsecond, 3, func() int64 { return counter })
	eng.Run()
	for _, w := range s.Samples() {
		if w.Rate != 0 {
			t.Errorf("idle window rate = %g", w.Rate)
		}
	}
	if s.MeanRate() != 0 {
		t.Error("idle sampler rates nonzero")
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{ID: "x", Title: "t"}
	s := &Series{Label: "a", XLabel: "pkt"}
	s.Add(64, 1.5)
	s.Add(128, 2.5)
	f.Series = append(f.Series, s)
	csv := f.CSV()
	for _, want := range []string{"pkt,a", "64,1.5", "128,2.5"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
	if (&Figure{}).CSV() != "" {
		t.Error("empty figure CSV should be empty")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Columns: []string{"A", "B"}}
	tab.AddRow("1", "2")
	csv := tab.CSV()
	if !strings.Contains(csv, "A,B") || !strings.Contains(csv, "1,2") {
		t.Errorf("table CSV wrong:\n%s", csv)
	}
}
