package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"harmonia/internal/obs"
)

func opts(scenario string, devices int) options {
	return options{scenario: scenario, app: "layer4-lb", devices: devices, gbps: 40, seed: 7}
}

func TestRunScale(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, opts("scale", 2)); err != nil {
		t.Fatalf("scale scenario: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "goodput-gbps") {
		t.Errorf("missing sweep header:\n%s", s)
	}
	if got := strings.Count(s, "\n"); got < 4 {
		t.Errorf("sweep printed %d lines, want rows for 1 and 2 devices:\n%s", got, s)
	}
}

func TestRunDrill(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, opts("drill", 3)); err != nil {
		t.Fatalf("drill scenario: %v", err)
	}
	s := out.String()
	for _, want := range []string{"killed:", "detected:", "recovery:", "state transitions:", "-> drained"} {
		if !strings.Contains(s, want) {
			t.Errorf("drill output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBench(t *testing.T) {
	// Tiny fleet sizes keep the sweep fast; the real sweep
	// (100/300/1000/10000) runs in CI's bench-smoke job. The toy sweep
	// measures none of the gated points, so the gates fail closed: the
	// report is still written, and the run fails naming every gate.
	o := opts("bench", 0)
	o.nodes = "2,4"
	o.jsonPath = filepath.Join(t.TempDir(), "BENCH_fleet.json")
	var out bytes.Buffer
	err := run(&out, o)
	if err == nil || strings.Count(err.Error(), "missing:") != 3 {
		t.Fatalf("bench scenario err = %v, want all three gates failing as missing", err)
	}
	s := out.String()
	for _, want := range []string{"fast-ns/pkt", "rack-ns/pkt", "wrote", "rack flat 10k/1k: 0.000 (bound 1.25): false (missing:"} {
		if !strings.Contains(s, want) {
			t.Errorf("bench output missing %q:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Points     []struct {
			Nodes        int     `json:"nodes"`
			Packets      int64   `json:"packets"`
			FastNsPerPkt float64 `json:"fast_ns_per_pkt"`
			RackNsPerPkt float64 `json:"rack_ns_per_pkt"`
		} `json:"points"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Experiment != "fleet3" || len(rep.Points) != 2 {
		t.Fatalf("report = %+v, want fleet3 with 2 points", rep)
	}
	for _, p := range rep.Points {
		if p.Packets == 0 || p.FastNsPerPkt <= 0 || p.RackNsPerPkt <= 0 {
			t.Errorf("point %+v has empty measurements", p)
		}
	}
}

func TestRunMigrate(t *testing.T) {
	o := opts("migrate", 0)
	o.jsonPath = filepath.Join(t.TempDir(), "BENCH_migrate.json")
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatalf("migrate scenario: %v", err)
	}
	s := out.String()
	for _, want := range []string{"cold", "migrated", "maglev re-hash bound", "migrations:", "wrote"} {
		if !strings.Contains(s, want) {
			t.Errorf("migrate output missing %q:\n%s", want, s)
		}
	}
	data, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Cold       struct {
			Disrupted int `json:"disrupted_flows"`
		} `json:"cold"`
		Migrated struct {
			Disrupted    int `json:"disrupted_flows"`
			FlowsCarried int `json:"flows_carried"`
		} `json:"migrated"`
		StrictlyFewer bool `json:"strictly_fewer"`
		WithinBound   bool `json:"within_bound"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Experiment != "fleet4" {
		t.Errorf("experiment = %q, want fleet4", rep.Experiment)
	}
	if !rep.StrictlyFewer || !rep.WithinBound {
		t.Errorf("gates failed: strictly_fewer=%v within_bound=%v (cold %d vs migrated %d disrupted)",
			rep.StrictlyFewer, rep.WithinBound, rep.Cold.Disrupted, rep.Migrated.Disrupted)
	}
	if rep.Migrated.FlowsCarried == 0 {
		t.Error("migrated case carried no flows")
	}
}

func TestRunBenchBadNodes(t *testing.T) {
	o := opts("bench", 0)
	o.nodes = "10,zero"
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("malformed -nodes list accepted")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, opts("bogus", 2)); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run(&out, opts("drill", 1)); err == nil {
		t.Error("1-device drill accepted (needs survivors)")
	}
	for _, n := range []int{1, 3} {
		if err := run(&out, opts("gossip", n)); err == nil || !strings.Contains(err.Error(), "gossip drill") {
			t.Errorf("%d-device gossip drill: err = %v, want a gossip drill error", n, err)
		}
	}
	bad := opts("scale", 2)
	bad.app = "ghost-app"
	if err := run(&out, bad); err == nil {
		t.Error("unknown app accepted")
	}
	for _, sc := range []string{"scale", "drill", "chaos", "bench"} {
		o := opts(sc, 4)
		o.racks = 3
		if err := run(&out, o); err == nil || !strings.Contains(err.Error(), "-racks") {
			t.Errorf("%s with -racks 3: err = %v, want a -racks error", sc, err)
		}
	}
}

// chaosRun is the one traced small storm both chaos tests check:
// its stdout, the JSON report, the tracecheck verdict on its trace and
// its metrics exposition, read back before the files are removed.
type chaosRun struct {
	once                  sync.Once
	o                     options
	out, check            string
	report, prom          []byte
	runErr, checkErr, err error
}

var tracedChaos chaosRun

// testTracedChaos runs chaos with every artifact on (24 devices, budget
// 2, seed 11) once per test binary. A small storm keeps the smoke tests
// fast; the tentpole 300-node drill runs in CI's drill matrix.
func testTracedChaos(t *testing.T) *chaosRun {
	t.Helper()
	c := &tracedChaos
	c.once.Do(func() {
		dir, err := os.MkdirTemp("", "harmonia-chaos-")
		if err != nil {
			c.err = err
			return
		}
		defer os.RemoveAll(dir)
		c.o = opts("chaos", 24)
		c.o.seed = 11
		c.o.budget = 2
		c.o.jsonPath = filepath.Join(dir, "BENCH_chaos.json")
		c.o.tracePath = filepath.Join(dir, "trace.json")
		c.o.metricsPath = filepath.Join(dir, "metrics.prom")
		var out bytes.Buffer
		c.runErr = run(&out, c.o)
		c.out = out.String()
		if c.report, err = os.ReadFile(c.o.jsonPath); err != nil {
			c.err = err
			return
		}
		if c.prom, err = os.ReadFile(c.o.metricsPath); err != nil {
			c.err = err
			return
		}
		// The trace must survive the same validation CI's trace smoke runs.
		var check bytes.Buffer
		c.checkErr = run(&check, options{scenario: "tracecheck", tracePath: c.o.tracePath})
		c.check = check.String()
	})
	if c.runErr != nil {
		t.Fatalf("chaos scenario: %v", c.runErr)
	}
	if c.err != nil {
		t.Fatalf("chaos artifacts not written: %v", c.err)
	}
	return c
}

// TestRunChaos checks the traced storm's stdout table, JSON gates and
// repro line.
func TestRunChaos(t *testing.T) {
	c := testTracedChaos(t)
	for _, want := range []string{"unbudgeted-static", "budgeted-static", "budgeted-derived",
		"budget bounded:         true", "unbudgeted exceeds:     true",
		"no traffic after alarm: true", "wrote " + c.o.jsonPath} {
		if !strings.Contains(c.out, want) {
			t.Errorf("chaos output missing %q:\n%s", want, c.out)
		}
	}
	var rep struct {
		Experiment string `json:"experiment"`
		Repro      string `json:"repro"`
		Cases      []struct {
			Name                string `json:"name"`
			Budgeted            bool   `json:"budgeted"`
			PeakConcurrentLoads int    `json:"peak_concurrent_loads"`
			AlarmedNodePackets  int64  `json:"alarmed_node_packets"`
		} `json:"cases"`
		BudgetBounded       bool `json:"budget_bounded"`
		UnbudgetedExceeds   bool `json:"unbudgeted_exceeds"`
		NoTrafficAfterAlarm bool `json:"no_traffic_after_alarm"`
	}
	if err := json.Unmarshal(c.report, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Experiment != "fleet5" || len(rep.Cases) != 3 {
		t.Fatalf("report = %+v, want fleet5 with 3 cases", rep)
	}
	if !rep.BudgetBounded || !rep.UnbudgetedExceeds || !rep.NoTrafficAfterAlarm {
		t.Errorf("gates failed: bounded=%v exceeds=%v no-alarm-traffic=%v",
			rep.BudgetBounded, rep.UnbudgetedExceeds, rep.NoTrafficAfterAlarm)
	}
	if !strings.Contains(rep.Repro, "-scenario chaos") || !strings.Contains(rep.Repro, "-seed 11") {
		t.Errorf("repro line %q does not rebuild the run", rep.Repro)
	}
}

// TestRunChaosTraceAndMetrics checks the same traced storm's trace
// (through tracecheck) and metrics exposition.
func TestRunChaosTraceAndMetrics(t *testing.T) {
	c := testTracedChaos(t)
	for _, want := range []string{"wrote " + c.o.tracePath, "wrote " + c.o.metricsPath} {
		if !strings.Contains(c.out, want) {
			t.Errorf("missing artifact confirmation %q:\n%s", want, c.out)
		}
	}
	if c.checkErr != nil {
		t.Fatalf("tracecheck on fresh trace: %v", c.checkErr)
	}
	for _, cat := range []string{"packet", "prload", "heartbeat", "migration", "fault"} {
		if !strings.Contains(c.check, cat) {
			t.Errorf("tracecheck output missing category %q:\n%s", cat, c.check)
		}
	}

	// The metrics exposition must carry the registry families from
	// every case, labelled by case name.
	for _, want := range []string{
		"# TYPE harmonia_router_sent_total counter",
		"# TYPE harmonia_route_latency_window_ps summary",
		`case="unbudgeted-static"`,
		`case="budgeted-derived"`,
		"harmonia_pr_loads_peak_concurrent",
	} {
		if !strings.Contains(string(c.prom), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// inTempDir runs the test from a fresh directory, so the flight
// recordings failing drills dump next to the binary land there.
func inTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	return dir
}

func TestRunCoResidencyHonoursBudget(t *testing.T) {
	// run() reads its options, not the process's flags: a budget given
	// in options must reach the drill. The toy fleet may fail its gates;
	// only the artifact's budget matters here.
	dir := inTempDir(t)
	o := opts("coresidency", 8)
	o.budget = 3
	o.flightN = 16
	o.jsonPath = filepath.Join(dir, "BENCH_coresidency.json")
	if err := run(&bytes.Buffer{}, o); err != nil && !strings.Contains(err.Error(), "gates failed") {
		t.Fatalf("coresidency scenario: %v", err)
	}
	data, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !bytes.Contains(data, []byte(`"budget": 3,`)) {
		t.Errorf("artifact does not carry budget 3:\n%.400s", data)
	}
}

// failingReport is a drill artifact whose gates never hold.
type failingReport struct {
	Experiment string `json:"experiment"`
}

func (failingReport) Failures() []string { return []string{"always_false"} }

func TestRunDrillFailingGates(t *testing.T) {
	// The driver's failure path, shared by every drill: the artifact is
	// still written, an untraced run dumps its flight recording, and the
	// error names the failed gate and carries the repro line.
	dir := inTempDir(t)
	fake := drill{name: "fake", artifact: "BENCH_fake.json", records: true,
		run: func(w io.Writer, o options, rec *obs.Recorder) (outcome, error) {
			rec.Process("fake").Track("control").Add(obs.Instant(obs.CatFault, "kill", 0))
			return outcome{report: failingReport{Experiment: "fake"}, repro: "go run fake -seed 3"}, nil
		}}
	o := fake.withDefaults(options{flightN: 16}, nil)
	var out bytes.Buffer
	err := runDrill(&out, fake, o)
	if err == nil {
		t.Fatal("failing gates accepted")
	}
	for _, want := range []string{"fake gates failed: always_false;", "flight recording in fake-flight.json",
		"reproduce with: go run fake -seed 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if !strings.Contains(out.String(), "wrote BENCH_fake.json") {
		t.Errorf("missing artifact confirmation:\n%s", out.String())
	}
	if data, err := os.ReadFile(filepath.Join(dir, "BENCH_fake.json")); err != nil || !bytes.Contains(data, []byte(`"fake"`)) {
		t.Errorf("artifact = %q, %v", data, err)
	}
	flight, err := os.ReadFile(filepath.Join(dir, "fake-flight.json"))
	if err != nil {
		t.Fatalf("flight recording not dumped: %v", err)
	}
	if !bytes.Contains(flight, []byte(`"kill"`)) {
		t.Errorf("flight recording lacks the recorded event:\n%s", flight)
	}
}

// TestGossipGatesFailClosed checks the gossip smoke artifact fails
// closed: a report whose legs never ran lists every gate by JSON key.
func TestGossipGatesFailClosed(t *testing.T) {
	want := []string{"refuted", "refute_no_failover", "confirmed_within_bound", "failover_completed"}
	if got := (&gossipReport{}).Failures(); !slices.Equal(got, want) {
		t.Errorf("zero report fails %q, want %q", got, want)
	}
}

func TestRunRejectsRecordingFlags(t *testing.T) {
	// Drills that record nothing refuse -trace and -metrics instead of
	// dropping them; the check runs before the drill does.
	for _, scenario := range []string{"bench", "migrate", "gossip"} {
		for _, flagName := range []string{"trace", "metrics"} {
			o := opts(scenario, 0)
			if flagName == "trace" {
				o.tracePath = "t.json"
			} else {
				o.metricsPath = "m.prom"
			}
			err := run(&bytes.Buffer{}, o)
			if err == nil || !strings.Contains(err.Error(), "scenario "+scenario) {
				t.Errorf("%s with -%s: err = %v, want a rejection naming the scenario", scenario, flagName, err)
			}
		}
	}
}

func TestDrillDefaults(t *testing.T) {
	d, ok := lookupDrill("coresidency")
	if !ok {
		t.Fatal("coresidency is not a drill")
	}
	o := d.withDefaults(options{devices: 4, budget: 9, seed: 3, jsonPath: "x.json"}, nil)
	if o.devices != 120 || o.budget != 6 || o.seed != 7 || o.jsonPath != "BENCH_coresidency.json" {
		t.Errorf("unset flags resolved to %+v, want the drill's 120 devices, budget 6, seed 7, BENCH_coresidency.json", o)
	}
	given := map[string]bool{"devices": true, "budget": true, "seed": true, "json": true}
	o = d.withDefaults(options{devices: 10, budget: 3, seed: 5, jsonPath: ""}, given)
	if o.devices != 10 || o.budget != 3 || o.seed != 5 || o.jsonPath != "" {
		t.Errorf("given flags overridden: %+v", o)
	}
	// The gossip artifact was built from seed 11, so a bare run must
	// use it.
	g, _ := lookupDrill("gossip")
	if o := g.withDefaults(options{seed: 7}, nil); o.seed != 11 {
		t.Errorf("gossip default seed = %d, want 11", o.seed)
	}
}

func TestRunTraceCheckRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&bytes.Buffer{}, options{scenario: "tracecheck", tracePath: bad}); err == nil {
		t.Error("empty trace accepted")
	}
	if err := run(&bytes.Buffer{}, options{scenario: "tracecheck"}); err == nil {
		t.Error("tracecheck without -trace accepted")
	}
}

func TestRunChaosBadBudget(t *testing.T) {
	o := opts("chaos", 24)
	o.budget = 0
	if err := run(&bytes.Buffer{}, o); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestCommittedDrillArtifacts regenerates every simulated-time drill
// artifact at its row defaults and requires it to equal the committed
// copy byte for byte: a change that moves a drill's result, or its
// JSON layout, fails here before CI's drill matrix sees it.
func TestCommittedDrillArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every committed drill artifact")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir := inTempDir(t)
	for _, d := range drills {
		if d.name == "bench" {
			// fleet3 records wall-clock costs; it is never committed-equal.
			continue
		}
		t.Run(d.name, func(t *testing.T) {
			o := d.withDefaults(opts(d.name, 0), nil)
			o.flightN = 2048
			want, err := os.ReadFile(filepath.Join(root, o.jsonPath))
			if err != nil {
				t.Fatal(err)
			}
			o.jsonPath = filepath.Join(dir, o.jsonPath)
			if err := run(io.Discard, o); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(o.jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("regenerated %s differs from the committed copy (if the change is intended, commit the output of go run ./cmd/harmonia-fleet -scenario %s)",
					filepath.Base(o.jsonPath), d.name)
			}
		})
	}
}
