package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// gated recomputes every fleet3 gate over pts.
func gated(pts []ControlPlanePoint) *ControlPlaneReport {
	r := &ControlPlaneReport{Points: pts}
	r.gateRackFlat()
	r.gateAllocs()
	r.gateFastBatched()
	return r
}

// TestControlPlaneGatesFailClosed checks that a sweep which did not
// measure a gated point fails that gate as missing, and that measured
// points pass or fail on their values.
func TestControlPlaneGatesFailClosed(t *testing.T) {
	toy := gated([]ControlPlanePoint{{Nodes: 2, FastNsPerPkt: 200, RackNsPerPkt: 200}, {Nodes: 4, FastNsPerPkt: 150, RackNsPerPkt: 190}})
	if toy.RackFlat || toy.AllocsFlat || toy.FastGate {
		t.Errorf("toy sweep passed a gate: rack %v allocs %v fast %v", toy.RackFlat, toy.AllocsFlat, toy.FastGate)
	}
	fails := toy.Failures()
	if len(fails) != 3 {
		t.Fatalf("toy sweep failures = %q, want all three gates", fails)
	}
	for _, f := range fails {
		if !strings.HasPrefix(f, "missing:") {
			t.Errorf("toy sweep failure %q is not a missing reason", f)
		}
	}

	full := []ControlPlanePoint{
		{Nodes: 100, FastNsPerPkt: 120, RackNsPerPkt: 130, FastAllocsPerPkt: 0.01, RackAllocsPerPkt: 0.01},
		{Nodes: 1000, FastNsPerPkt: 300, RackNsPerPkt: 240, FastAllocsPerPkt: 0.01, RackAllocsPerPkt: 0.02},
		{Nodes: 10000, FastNsPerPkt: 500, RackNsPerPkt: 250, FastAllocsPerPkt: 0.03, RackAllocsPerPkt: 0.02},
	}
	if r := gated(full); len(r.Failures()) != 0 || !r.RackFlat || !r.AllocsFlat || !r.FastGate {
		t.Errorf("passing sweep failed: %q", r.Failures())
	}

	// Only the rack point at 10k is gone: the scale gate alone fails,
	// as missing.
	noRack10k := append([]ControlPlanePoint(nil), full...)
	noRack10k[2].RackNsPerPkt = 0
	if r := gated(noRack10k); r.RackFlat || !strings.HasPrefix(r.RackFlatReason, "missing:") || len(r.Failures()) != 1 {
		t.Errorf("sweep without a 10k rack point: rack %v, failures %q", r.RackFlat, r.Failures())
	}

	slow := append([]ControlPlanePoint(nil), full...)
	slow[1].FastNsPerPkt = FastBatchedBoundNs + 1
	slow[2].FastAllocsPerPkt = AllocBound * 2
	slow[2].RackNsPerPkt = slow[1].RackNsPerPkt * (RackFlatBound + 0.1)
	r := gated(slow)
	if fails := r.Failures(); len(fails) != 3 {
		t.Fatalf("over-bound sweep failures = %q, want all three gates", fails)
	}
	for _, f := range r.Failures() {
		if strings.HasPrefix(f, "missing:") {
			t.Errorf("measured point reported missing: %q", f)
		}
	}
}

// TestCommittedFleetArtifact reads the committed BENCH_fleet.json: it
// must cover every default sweep size, measure every gated point, and
// record gate verdicts that match recomputing them from its points and
// all pass.
func TestCommittedFleetArtifact(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep ControlPlaneReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, p := range rep.Points {
		sizes = append(sizes, p.Nodes)
	}
	if !reflect.DeepEqual(sizes, ControlPlaneScaleSizes) {
		t.Errorf("artifact sweeps %v, want %v", sizes, ControlPlaneScaleSizes)
	}
	re := gated(rep.Points)
	if re.RackFlat != rep.RackFlat || re.AllocsFlat != rep.AllocsFlat || re.FastGate != rep.FastGate {
		t.Errorf("recorded gates rack %v allocs %v fast %v, recomputed %v %v %v",
			rep.RackFlat, rep.AllocsFlat, rep.FastGate, re.RackFlat, re.AllocsFlat, re.FastGate)
	}
	if fails := re.Failures(); len(fails) != 0 {
		t.Errorf("committed artifact fails its gates: %q", fails)
	}
}
