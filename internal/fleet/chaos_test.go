package fleet

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"
	"testing"
)

// chaosTestOptions is a storm small enough for the unit suite but big
// enough that the rack kill outruns a 2-load budget.
func chaosTestOptions() DrillOptions {
	return DrillOptions{Devices: 24, Budget: 2, Seed: 11}
}

// chaosOnce shares one drill run across the package's chaos tests —
// the drill replays three full storms, so each extra run is real time.
var chaosOnce struct {
	sync.Once
	res *ChaosResult
	err error
}

func testChaosResult(t *testing.T) *ChaosResult {
	t.Helper()
	chaosOnce.Do(func() { chaosOnce.res, chaosOnce.err = ChaosDrill(chaosTestOptions()) })
	if chaosOnce.err != nil {
		t.Fatal(chaosOnce.err)
	}
	return chaosOnce.res
}

// TestChaosDrillGates checks the tentpole claims on one small-storm
// run: every acceptance gate the result evaluates holds (the budgeted
// cases hold the concurrent PR-load cap, the unbudgeted case exceeds
// it, and derived shedding routes nothing onto a node in a window it
// spent alarmed), the storm bit every case, and the static penalty
// leaves the contrast derived shedding is judged against.
func TestChaosDrillGates(t *testing.T) {
	res := testChaosResult(t)
	if f := res.Failures(); len(f) != 0 {
		t.Errorf("gates failed: %v", f)
	}
	if len(res.Cases) != 3 {
		t.Fatalf("got %d cases, want 3", len(res.Cases))
	}
	for _, c := range res.Cases {
		if c.Sent == 0 || c.Failovers == 0 {
			t.Errorf("%s: sent %d packets, %d failovers — the storm did not bite",
				c.Name, c.Sent, c.Failovers)
		}
		if c.LoadFailures == 0 {
			t.Errorf("%s: no injected PR-load failures", c.Name)
		}
		if !c.DerivedShedding && c.AlarmedNodePackets == 0 {
			t.Errorf("%s: static penalty kept all traffic off alarmed nodes — the contrast is empty", c.Name)
		}
	}
	if !res.Cases[1].Budgeted || res.Cases[1].LoadsQueued == 0 {
		t.Errorf("budgeted case queued no loads (peak %d)", res.Cases[1].PeakConcurrentLoads)
	}
}

// TestDrillGatesFailClosed checks every drill result fails closed: a
// result whose drill never ran lists every one of its gates, by
// artifact JSON key, in artifact order.
func TestDrillGatesFailClosed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		result interface{ Failures() []string }
		want   []string
	}{
		{"migrate", &MigrationDrillResult{}, []string{"strictly_fewer", "within_bound"}},
		{"chaos", &ChaosResult{}, []string{"budget_bounded", "unbudgeted_exceeds", "no_traffic_after_alarm"}},
		{"coresidency", &CoResResult{}, []string{"slo_order_held", "shed_order_held", "failover_preempts"}},
		{"rebalance", &RebalanceDrillResult{},
			[]string{"carries_all_flows", "frag_decreases", "faulted_within_bound", "failover_preempts"}},
		{"slo", &SLOResult{}, []string{"alerts_attributed", "alerts_resolved", "deterministic"}},
	} {
		if got := tc.result.Failures(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: zero result fails %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestChaosDrillDeterministic re-runs the drill from the same seed and
// requires a byte-identical report — the reproducibility contract the
// CI artifact and the printed repro line rely on. The second run is
// the shared traced one, so it also proves tracing changes no result.
func TestChaosDrillDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("second full drill run")
	}
	res := testChaosResult(t)
	again, _ := testTracedChaos(t)
	a, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("an untraced and a traced drill from the same seed produced different reports")
	}
}

// TestDrillValidation rejects configurations the drills cannot run:
// a fleet below each drill's minimum and a zero PR-load budget.
func TestDrillValidation(t *testing.T) {
	for _, d := range []struct {
		name       string
		minDevices int
		run        func(DrillOptions) error
	}{
		{"chaos", 4, func(o DrillOptions) error { _, err := ChaosDrill(o); return err }},
		{"coresidency", 8, func(o DrillOptions) error { _, err := CoResidencyDrill(o); return err }},
		{"rebalance", 8, func(o DrillOptions) error { _, err := RebalanceDrill(o); return err }},
		{"slo", 8, func(o DrillOptions) error { _, err := SLODrill(o); return err }},
	} {
		t.Run(d.name, func(t *testing.T) {
			if err := d.run(DrillOptions{Devices: d.minDevices - 1, Budget: 2, Seed: 1}); err == nil {
				t.Errorf("%d-device fleet accepted", d.minDevices-1)
			}
			if err := d.run(DrillOptions{Devices: 24, Budget: 0, Seed: 1}); err == nil {
				t.Error("zero budget accepted")
			}
		})
	}
}

// TestDerivedSheddingGradual checks the ramp behavior: as the runaway
// node's temperature climbs toward the alarm, the derived penalty rises
// through intermediate values (gradual shedding) where the static
// policy is a flat step at the alarm.
func TestDerivedSheddingGradual(t *testing.T) {
	res := testChaosResult(t)
	derived := res.Cases[2]
	if !derived.DerivedShedding {
		t.Fatalf("case 2 is %s, want the derived-shedding case", derived.Name)
	}
	intermediate := map[float64]bool{}
	sawFloor := false
	for _, w := range derived.Windows {
		if w.RampPenalty > 1 && w.RampPenalty < degradedPenalty {
			intermediate[w.RampPenalty] = true
		}
		if w.RampPenalty >= degradedPenalty {
			sawFloor = true
		}
	}
	if len(intermediate) < 3 {
		t.Errorf("ramp produced %d intermediate penalty levels, want >= 3 (gradual, not a step)",
			len(intermediate))
	}
	if !sawFloor {
		t.Error("ramp never reached the alarm-line penalty")
	}
}
