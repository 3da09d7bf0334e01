package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// The benchmark's self-test. Every workload at toy size must emit every
// declared metric with its unit and a finite value, untraced and
// traced, with a digest that repeats; and a run must fail closed on a
// digest that does not match or a metric that is missing.

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		emitted  []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark emits %d", len(c.declared), len(c.emitted))
			continue
		}
		for i, d := range c.declared {
			if e := c.emitted[i]; d.Name != e.name || d.Unit != e.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, d.Name, d.Unit, e.name, e.unit)
			}
		}
	}
}

func TestToyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.name, seed: 5, trace: trace, toy: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d",
					w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if err := validate(res.Metrics, specs, !trace); err != nil {
				t.Errorf("%s trace=%t: %v", w.name, trace, err)
			}
		}
	}
}

func TestCorruptDigestFailsRun(t *testing.T) {
	res, err := run(options{workload: "lb-steady-1k", seed: 5, toy: true, want: "0123456789abcdef"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("digest mismatch: correct=%t failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestMissingMetricFailsRun(t *testing.T) {
	m := map[string]metric{}
	for _, s := range endToEnd[1:] {
		m[s.name] = metric{1, s.unit}
	}
	res := &result{Correct: true, Attempted: 10, Metrics: m}
	settle(res, endToEnd, true, io.Discard)
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("missing %s: correct=%t failed=%d of %d", endToEnd[0].name, res.Correct, res.Failed, res.Attempted)
	}
}

func TestDigestsRecordedForSeedsOneToTen(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 10; seed++ {
			d, err := recordedDigest(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(d) != 16 {
				t.Errorf("%s seed %d: recorded digest %q", w.name, seed, d)
			}
		}
	}
}
