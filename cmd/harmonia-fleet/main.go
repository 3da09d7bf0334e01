// Command harmonia-fleet drives the multi-device control plane: it
// commissions a heterogeneous fleet of catalog devices, places service
// replicas into their PR slots, and runs the operator drills — the
// scale-out sweep (aggregate throughput vs device count), the
// kill-a-device drill (health-driven failover with measured recovery
// time), the control-plane overhead bench (the sharded fast path and
// the rack-hierarchical path across fleet sizes, emitted as
// BENCH_fleet.json), the live-migration drill (stateful LB failover
// with and without carrying the connection table across, emitted as
// BENCH_migrate.json), the failure-storm chaos drill (one seeded
// injection schedule replayed unbudgeted vs budgeted and static vs
// derived shedding, emitted as BENCH_chaos.json), the gossip smoke
// drill (a full suspect/refute/confirm protocol cycle on a seeded
// fleet, emitted as BENCH_gossip.json), the multi-service co-residency
// drill (the storm replayed against three services of different
// classes sharing one fleet, emitted as BENCH_coresidency.json), the
// crash-safe rebalancing drill (a fragmented fleet rebalanced through
// pre-copy + delta-replay moves under migration-targeted fault
// injection, emitted as BENCH_rebalance.json), and the SLO drill (the
// storm judged by error-budget windows, burn-rate alerts and causal
// postmortems, emitted as BENCH_slo.json).
//
// Usage:
//
//	harmonia-fleet -scenario scale -devices 4
//	harmonia-fleet -scenario drill -devices 3 -app layer4-lb
//	harmonia-fleet -scenario bench -nodes 100,300,1000,10000 -json BENCH_fleet.json
//	harmonia-fleet -scenario bench -cpuprofile cpu.pprof -memprofile mem.pprof
//	harmonia-fleet -scenario migrate -json BENCH_migrate.json
//	harmonia-fleet -scenario chaos -devices 300 -seed 11 -budget 8
//	harmonia-fleet -scenario chaos -trace trace.json -metrics metrics.prom
//	harmonia-fleet -scenario gossip -devices 300 -seed 11 -racks 8
//	harmonia-fleet -scenario coresidency -devices 120 -seed 11 -budget 6
//	harmonia-fleet -scenario rebalance -devices 24 -seed 11 -budget 2
//	harmonia-fleet -scenario slo -devices 120 -seed 11 -budget 6
//	harmonia-fleet -scenario tracecheck -trace trace.json
//	harmonia-fleet -scenario tracecheck -trace rebal.json -cats packet,prload,heartbeat,rebalance
//
// The bench sweep's default sizes reach the 10000-node scale point, and
// the report gates on the rack-hierarchical path's per-packet cost
// staying flat (within 1.25x) from 1000 to 10000 nodes.
//
// Each artifact-writing drill (bench, migrate, gossip, chaos,
// coresidency, rebalance, slo) is one row of the drills table, which
// holds its default -devices, -budget and -seed, and one driver runs
// them all: it writes BENCH_<scenario>.json (bench writes
// BENCH_fleet.json; -json overrides the path and -json "" skips it),
// asks the report which gates failed, and fails naming them with a
// one-command repro line when any did. The recording drills (chaos,
// coresidency, rebalance, slo) always fly with a flight recorder: when
// a gate fails, the last -flight events per track dump to
// <scenario>-flight.json.
// Passing -trace upgrades to full recording and writes a Chrome
// trace-event file Perfetto loads directly; -metrics writes the
// drill's registries as Prometheus text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"harmonia/internal/bench"
	"harmonia/internal/fleet"
	"harmonia/internal/gossip"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// options collects the CLI knobs so scenarios stay testable.
type options struct {
	scenario string
	app      string
	devices  int
	gbps     float64
	seed     int64
	budget   int // concurrent PR-load cap for the budgeted cases
	racks    int // gossip only: rack count override (0 = auto, one rack per 64 nodes)
	// bench scenario only.
	nodes    string // comma-separated fleet sizes
	jsonPath string // where a drill writes its report (empty to skip)
	// observability (recording drills and tracecheck).
	tracePath   string // Chrome trace-event output (drills) / input (tracecheck)
	metricsPath string // Prometheus text exposition output
	flightN     int    // flight-recorder ring size per track
	cats        string // tracecheck: required-category override
}

func main() {
	var o options
	flag.StringVar(&o.scenario, "scenario", "scale", "scale | drill | bench | migrate | chaos | gossip | coresidency | rebalance | slo | tracecheck")
	flag.StringVar(&o.app, "app", "layer4-lb", "application to replicate across the fleet")
	flag.IntVar(&o.devices, "devices", 4, "fleet size (sweep upper bound for scale; artifact drills default to their own)")
	flag.Float64Var(&o.gbps, "gbps", 40, "offered load per device (Gbps)")
	flag.Int64Var(&o.seed, "seed", 7, "workload and router seed (artifact drills default to their own)")
	flag.IntVar(&o.budget, "budget", 0, "concurrent PR-load cap for the budgeted cases (default: the drill's own)")
	flag.IntVar(&o.racks, "racks", 0, "gossip: rack count (0 = auto, one rack per 64 nodes)")
	flag.StringVar(&o.nodes, "nodes", "", "bench: comma-separated fleet sizes (default 100,300,1000,10000)")
	flag.StringVar(&o.jsonPath, "json", "", "drill report path (default BENCH_<scenario>.json, bench: BENCH_fleet.json; empty to skip)")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event file; tracecheck: file to validate")
	flag.StringVar(&o.metricsPath, "metrics", "", "write the drill's registries as Prometheus text")
	flag.IntVar(&o.flightN, "flight", 2048, "flight-recorder ring size per track (when -trace is not set)")
	flag.StringVar(&o.cats, "cats", "", "tracecheck: comma-separated required categories (default: the chaos taxonomy)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// A drill's own fleet size, budget, seed and artifact path apply
	// unless the user gave the flag.
	if d, ok := lookupDrill(o.scenario); ok {
		given := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		o = d.withDefaults(o, given)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	if err := run(os.Stdout, o); err != nil {
		fatal(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harmonia-fleet:", err)
	os.Exit(1)
}

func run(w io.Writer, o options) error {
	if o.racks != 0 && o.scenario != "gossip" {
		// Only the gossip drill dispatches rack-first; elsewhere the rack
		// count changes no output.
		return fmt.Errorf("scenario %s ignores -racks (only gossip dispatches rack-first); drop it", o.scenario)
	}
	if d, ok := lookupDrill(o.scenario); ok {
		return runDrill(w, d, o)
	}
	traffic := fleet.DefaultTraffic(o.app)
	traffic.OfferedGbps = o.gbps
	traffic.Seed = o.seed
	cfg := fleet.DefaultConfig()
	cfg.Seed = o.seed

	switch o.scenario {
	case "scale":
		return runScale(w, cfg, o.app, o.devices, traffic)
	case "drill":
		return runKillDrill(w, cfg, o.app, o.devices, traffic)
	case "tracecheck":
		return runTraceCheck(w, o)
	default:
		return fmt.Errorf("unknown scenario %q (want scale, drill, bench, migrate, chaos, gossip, coresidency, rebalance, slo or tracecheck)", o.scenario)
	}
}

// A drill is one artifact-writing scenario. Its row holds only what
// differs between drills; runDrill owns the rest of the lifecycle.
type drill struct {
	name     string
	artifact string // default -json path
	devices  int    // default -devices (0: the drill sizes its own fleet)
	budget   int    // default -budget (0: the drill has no PR-load cap)
	seed     int64  // default -seed: the one the committed artifact was built from (0: the drill takes no seed)
	records  bool   // flies a recorder: honours -trace, -metrics and -flight
	// run executes the drill and prints its table; rec is nil unless
	// the drill records.
	run func(w io.Writer, o options, rec *obs.Recorder) (outcome, error)
}

// outcome is what a drill hands back to the driver.
type outcome struct {
	report interface{ Failures() []string } // the JSON artifact; Failures names its failed gates
	repro  string                           // one command that rebuilds this run
	regs   []*obs.Registry                  // what -metrics exports
}

var drills = []drill{
	{name: "bench", artifact: "BENCH_fleet.json", run: runBench},
	{name: "migrate", artifact: "BENCH_migrate.json", run: runMigrate},
	{name: "gossip", artifact: "BENCH_gossip.json", devices: 300, seed: 11, run: runGossip},
	{name: "chaos", artifact: "BENCH_chaos.json", devices: 300, budget: 8, seed: 7, records: true, run: runChaos},
	{name: "coresidency", artifact: "BENCH_coresidency.json", devices: 120, budget: 6, seed: 7, records: true, run: runCoResidency},
	{name: "rebalance", artifact: "BENCH_rebalance.json", devices: 24, budget: 2, seed: 7, records: true, run: runRebalance},
	{name: "slo", artifact: "BENCH_slo.json", devices: 120, budget: 6, seed: 7, records: true, run: runSLO},
}

func lookupDrill(name string) (drill, bool) {
	for _, d := range drills {
		if d.name == name {
			return d, true
		}
	}
	return drill{}, false
}

// withDefaults applies the row's -devices, -budget, -seed and -json
// defaults to every one of those flags the user did not give.
func (d drill) withDefaults(o options, given map[string]bool) options {
	if !given["devices"] {
		o.devices = d.devices
	}
	if !given["budget"] {
		o.budget = d.budget
	}
	if !given["seed"] {
		o.seed = d.seed
	}
	if !given["json"] {
		o.jsonPath = d.artifact
	}
	return o
}

// drillOptions hands a storm or rebalance drill its fleet size, budget,
// seed and recorder.
func (o options) drillOptions(rec *obs.Recorder) fleet.DrillOptions {
	return fleet.DrillOptions{Devices: o.devices, Budget: o.budget, Seed: o.seed, Trace: rec}
}

// runDrill runs one drill and owns what every drill shares: the
// recorder, the JSON artifact, the trace and metrics files (written
// before the gate check, so a failing run keeps its evidence), the gate
// check, the flight dump and the repro line.
func runDrill(w io.Writer, d drill, o options) error {
	if !d.records && (o.tracePath != "" || o.metricsPath != "") {
		return fmt.Errorf("scenario %s records no trace or metrics; drop -trace and -metrics", d.name)
	}
	var rec *obs.Recorder
	switch {
	case !d.records:
	case o.tracePath != "":
		rec = obs.NewRecorder()
	default:
		rec = obs.NewFlightRecorder(o.flightN)
	}
	out, err := d.run(w, o, rec)
	if err != nil {
		return err
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(out.report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", o.jsonPath)
	}
	if o.tracePath != "" {
		if err := writeFile(o.tracePath, rec.WriteTrace); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.tracePath)
	}
	if o.metricsPath != "" {
		prom := func(f io.Writer) error { return obs.WriteProm(f, out.regs...) }
		if err := writeFile(o.metricsPath, prom); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.metricsPath)
	}
	failed := out.report.Failures()
	if len(failed) == 0 {
		return nil
	}
	msg := d.name + " gates failed: " + strings.Join(failed, "; ")
	if rec != nil && o.tracePath == "" {
		// The last -flight events per track: the forensic record of the
		// moments before the gate went red.
		flightPath := d.name + "-flight.json"
		if err := writeFile(flightPath, rec.WriteTrace); err == nil {
			msg += "; flight recording in " + flightPath
		}
	}
	return fmt.Errorf("%s; reproduce with: %s", msg, out.repro)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runScale sweeps the fleet 1..n devices and prints the aggregate
// throughput series.
func runScale(w io.Writer, cfg fleet.Config, app string, n int, t fleet.Traffic) error {
	fmt.Fprintf(w, "scale-out sweep: %s, 1..%d devices, %.0f Gbps offered per device\n\n",
		app, n, t.OfferedGbps)
	pts, err := fleet.ScaleOut(cfg, app, n, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-9s %-14s %-12s %-10s %-10s\n",
		"devices", "replicas", "goodput-gbps", "qps", "p50", "p99")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8d %-9d %-14.1f %-12.0f %-10v %-10v\n",
			p.Devices, p.Replicas, p.GoodputGbps, p.QPS, p.P50, p.P99)
	}
	return nil
}

// runKillDrill kills a device mid-run and prints the failover timeline.
func runKillDrill(w io.Writer, cfg fleet.Config, app string, n int, t fleet.Traffic) error {
	fmt.Fprintf(w, "kill-a-device drill: %s on %d devices, %.0f Gbps offered\n\n",
		app, n, t.OfferedGbps)
	d, err := fleet.KillDrill(cfg, app, n, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pre-fault:  %.1f Gbps, %.0f qps, p99 %v\n",
		d.Pre.GoodputGbps, d.Pre.QPS, d.Pre.P99)
	fmt.Fprintf(w, "killed:     %s at %v (silent: wire corrupted, heartbeats stop)\n",
		d.Killed, d.FaultAt)
	fmt.Fprintf(w, "detected:   %v (+%v, %d missed heartbeats at %v cadence)\n",
		d.DetectedAt, d.DetectedAt-d.FaultAt, cfg.FailedAfter, cfg.Heartbeat)
	fmt.Fprintf(w, "recovered:  %v — %d/%d tenants re-placed on survivors\n",
		d.RecoveredAt, d.Replaced, d.Moved)
	fmt.Fprintf(w, "recovery:   %v fault-to-full-replacement\n", d.RecoveryTime)
	if d.Unplaced > 0 {
		fmt.Fprintf(w, "UNPLACED:   %d tenants found no capacity\n", d.Unplaced)
	}
	fmt.Fprintf(w, "post-fault: %.1f Gbps, %.0f qps, p99 %v (%d survivors)\n\n",
		d.Post.GoodputGbps, d.Post.QPS, d.Post.P99, n-1)

	fmt.Fprintln(w, "state transitions:")
	for _, tr := range d.Transitions {
		fmt.Fprintf(w, "  %v\n", tr)
	}
	return nil
}

// runBench runs the fleet3 control-plane overhead sweep (default sizes
// include the 10000-node scale point) and prints the scaling table. Its
// report gates on three invariants: the rack
// path staying flat from 1k to 10k nodes, per-packet allocations on
// both batched paths staying under bench.AllocBound at every swept
// size, and the batched fast path staying under bench.FastBatchedBoundNs
// at the 1000-node point. The gates fail closed: a -nodes sweep that
// skips a gated size writes its report, then exits non-zero naming the
// missing point.
func runBench(w io.Writer, o options, _ *obs.Recorder) (outcome, error) {
	sizes, err := parseSizes(o.nodes)
	if err != nil {
		return outcome{}, err
	}
	repro := "go run ./cmd/harmonia-fleet -scenario bench"
	if sizes == nil {
		sizes = bench.ControlPlaneScaleSizes
	} else {
		repro += " -nodes " + o.nodes
	}
	rep, err := bench.FleetControlPlaneReport(sizes)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "control-plane overhead: %s, %.0f Gbps/node, %v phase\n\n",
		rep.App, rep.GbpsPerNode, sim.Time(rep.PhasePs))
	fmt.Fprintf(w, "%-7s %-7s %-7s %-8s %-9s %-13s %-13s %-12s %-12s\n",
		"nodes", "shards", "racks", "cohorts", "packets",
		"fast-ns/pkt", "rack-ns/pkt", "fast-allocs", "rack-allocs")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-7d %-7d %-7d %-8d %-9d %-13.0f %-13.0f %-12.3f %-12.3f\n",
			p.Nodes, p.Shards, p.Racks, p.Cohorts, p.Packets,
			p.FastNsPerPkt, p.RackNsPerPkt, p.FastAllocsPerPkt, p.RackAllocsPerPkt)
	}
	gate := func(name string, ok bool, reason string) {
		if reason != "" {
			reason = " (" + reason + ")"
		}
		fmt.Fprintf(w, "%s: %v%s\n", name, ok, reason)
	}
	fmt.Fprintln(w)
	gate(fmt.Sprintf("rack flat 10k/1k: %.3f (bound %.2f)", rep.RackFlatRatio, rep.RackFlatBound),
		rep.RackFlat, rep.RackFlatReason)
	gate(fmt.Sprintf("allocs/pkt <= %.2f at every size", rep.AllocBound), rep.AllocsFlat, rep.AllocsReason)
	gate(fmt.Sprintf("fast path at %d nodes: %.1f ns/pkt (bound %.0f)",
		rep.FastGateNodes, rep.FastGateNsPerPkt, rep.FastGateBoundNs), rep.FastGate, rep.FastGateReason)
	return outcome{report: rep, repro: repro}, nil
}

// gossipReport is the machine-readable fleet7 smoke artifact
// (BENCH_gossip.json): one full suspect/refute/confirm protocol cycle
// on a seeded fleet.
type gossipReport struct {
	Experiment string `json:"experiment"`
	App        string `json:"app"`
	Devices    int    `json:"devices"`
	Racks      int    `json:"racks"`
	Seed       int64  `json:"seed"`
	BoundPs    int64  `json:"detection_bound_ps"`

	// Refutation leg: a live node is falsely suspected and must refute
	// by bumping its incarnation, with no failover.
	SuspectedNode string `json:"suspected_node"`
	Refuted       bool   `json:"refuted"`
	RefuteClean   bool   `json:"refute_no_failover"`

	// Confirmation leg: a killed node must be confirmed dead within the
	// detection bound and its replicas re-placed.
	KilledNode       string `json:"killed_node"`
	DetectPs         int64  `json:"detect_latency_ps"`
	Confirmed        bool   `json:"confirmed_within_bound"`
	FailoverDone     bool   `json:"failover_completed"`
	ReplicasReplaced int    `json:"replicas_replaced"`

	Events []fleet.GossipEvent `json:"events"`
	Stats  gossip.Stats        `json:"stats"`
}

// Failures names every smoke-cycle gate that did not hold: false
// suspicion refuted without failover, real failure confirmed within the
// bound, failover done.
func (r *gossipReport) Failures() []string {
	var out []string
	for _, g := range []struct {
		name string
		ok   bool
	}{
		{"refuted", r.Refuted},
		{"refute_no_failover", r.RefuteClean},
		{"confirmed_within_bound", r.Confirmed},
		{"failover_completed", r.FailoverDone},
	} {
		if !g.ok {
			out = append(out, g.name)
		}
	}
	return out
}

// runGossip runs the fleet7 gossip smoke drill: build a seeded fleet
// with gossip health and rack-first dispatch, falsely suspect a live
// node (must refute, no failover), then kill a node (must be suspected,
// confirmed within the detection bound, and failed over).
func runGossip(w io.Writer, o options, _ *obs.Recorder) (outcome, error) {
	n := o.devices
	// The suspected node (nodes[1]) and the killed one (nodes[n/2])
	// must be two different nodes.
	if n < 4 {
		return outcome{}, fmt.Errorf("gossip drill needs at least 4 devices, got %d", n)
	}
	cfg := fleet.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Racks = o.racks
	cfg.GossipHealth = true
	cfg.RackP2C = true
	c, err := fleet.BuildCluster(cfg, o.app, n, n)
	if err != nil {
		return outcome{}, err
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	// A short serving burst freezes the rack layout and exercises the
	// rack-first dispatch path before the protocol legs run.
	t := fleet.DefaultTraffic(o.app)
	t.OfferedGbps = o.gbps * float64(n)
	t.Seed = o.seed
	if _, err := c.Serve(50*sim.Microsecond, t); err != nil {
		return outcome{}, err
	}
	bound := c.GossipDetectionBound()
	nodes := c.Nodes()
	rep := &gossipReport{
		Experiment: "fleet7", App: o.app, Devices: n, Seed: o.seed,
		Racks: c.RackCount(), BoundPs: int64(bound),
	}
	fmt.Fprintf(w, "gossip smoke: %s on %d devices, %d racks, seed %d, detection bound %v\n\n",
		o.app, n, rep.Racks, o.seed, bound)

	// Leg 1: false suspicion. The suspected node is alive, so its next
	// direct probe answers and the detector refutes by bumping the
	// incarnation — no state transition, no failover.
	suspect := nodes[1].ID
	rep.SuspectedNode = suspect
	if _, err := c.InjectGossipSuspicion(suspect); err != nil {
		return outcome{}, err
	}
	c.RunMonitorUntil(c.Now() + bound)
	failoversBefore := len(c.Failovers())
	for _, ev := range c.GossipEvents() {
		if ev.Node == suspect && ev.Kind == "refuted" {
			rep.Refuted = true
		}
	}
	rep.RefuteClean = failoversBefore == 0
	fmt.Fprintf(w, "false suspicion of %s: refuted=%v failovers=%d\n",
		suspect, rep.Refuted, failoversBefore)

	// Leg 2: real failure. Kill a node and let the detector run the
	// full suspect -> confirm cycle; confirmation triggers failover.
	killed := nodes[len(nodes)/2].ID
	rep.KilledNode = killed
	faultAt := c.Now()
	if err := c.Kill(killed); err != nil {
		return outcome{}, err
	}
	c.RunMonitorUntil(faultAt + bound + cfg.Heartbeat)
	for _, tr := range c.Transitions() {
		if tr.Node == killed && tr.To == fleet.Failed {
			rep.DetectPs = int64(tr.At - faultAt)
			rep.Confirmed = tr.At-faultAt <= bound
			break
		}
	}
	for _, f := range c.Failovers() {
		if f.Node == killed {
			rep.FailoverDone = true
			rep.ReplicasReplaced = f.Replaced
		}
	}
	fmt.Fprintf(w, "killed %s at %v: detected in %v (bound %v), failover=%v replaced=%d\n",
		killed, faultAt, sim.Time(rep.DetectPs), bound, rep.FailoverDone, rep.ReplicasReplaced)

	rep.Events = c.GossipEvents()
	rep.Stats = c.GossipStats()
	s := rep.Stats
	fmt.Fprintln(w, "\nprotocol events:")
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "  %v %-10s %s (incarnation %d)\n", ev.At, ev.Kind, ev.Node, ev.Incarnation)
	}
	fmt.Fprintf(w, "\nstats: ticks=%d probes=%d digests=%d suspicions=%d refutations=%d confirmations=%d\n",
		s.Ticks, s.Probes, s.Digests, s.Suspicions, s.Refutations, s.Confirmations)
	repro := fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario gossip -app %s -devices %d -gbps %g -seed %d -racks %d",
		o.app, n, o.gbps, o.seed, o.racks)
	return outcome{report: rep, repro: repro}, nil
}

// runMigrate runs the fleet4 live-migration drill: the same stateful-LB
// failover cold and with the connection table carried across, judged
// against the Maglev re-hash bound.
func runMigrate(w io.Writer, _ options, _ *obs.Recorder) (outcome, error) {
	rep, err := fleet.MigrationDrill()
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "live-migration drill: %s on %d devices, %d backends, killed %s\n\n",
		rep.App, rep.Devices, rep.Backends, rep.Killed)
	fmt.Fprintf(w, "%-10s %-12s %-11s %-12s %-9s %-10s\n",
		"case", "established", "disrupted", "disruption", "carried", "recovery")
	for _, p := range []fleet.MigrationCase{rep.Cold, rep.Migrated} {
		name := "cold"
		if p.Migrated {
			name = "migrated"
		}
		fmt.Fprintf(w, "%-10s %-12d %-11d %-12.4f %-9d %-10v\n",
			name, p.Established, p.Disrupted, p.Disruption, p.FlowsCarried, p.RecoveryTime)
	}
	fmt.Fprintf(w, "\nmaglev re-hash bound: %.4f (backend drain remapped this fraction)\n",
		rep.MaglevBound)
	fmt.Fprintf(w, "strictly fewer disrupted: %v\nwithin maglev bound:      %v\n",
		rep.StrictlyFewer, rep.WithinBound)
	fmt.Fprintln(w, "\nmigrations:")
	for _, m := range rep.Records {
		mode := "snapshot"
		if m.Live {
			mode = "live"
		}
		fmt.Fprintf(w, "  %s: %s -> %s at %v (%s, %d/%d flows restored, age %v)\n",
			m.Replica, m.From, m.To, m.At, mode, m.Restored, m.Flows, m.SnapshotAge)
	}
	return outcome{report: rep, repro: rep.Repro}, nil
}

// runChaos runs the fleet5 failure-storm drill: one seeded injection
// schedule replayed against three fleets (unbudgeted/static,
// budgeted/static, budgeted/derived-shedding), gated on the PR-load
// budget holding, the unbudgeted fleet exceeding it, and derived
// shedding keeping packets off alarmed nodes.
func runChaos(w io.Writer, o options, rec *obs.Recorder) (outcome, error) {
	rep, err := fleet.ChaosDrill(o.drillOptions(rec))
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "failure-storm drill: %s on %d devices, rack size %d, seed %d, budget %d\n",
		rep.App, rep.Devices, rep.RackSize, rep.Seed, rep.Budget)
	fmt.Fprintf(w, "storm: %d injections over [%v, %v]\n\n",
		len(rep.Injections), rep.StormStart, rep.StormEnd)
	fmt.Fprintf(w, "%-18s %-13s %-10s %-8s %-9s %-10s %-11s %-11s %-8s\n",
		"case", "availability", "peak-load", "queued", "failures", "failovers", "p99-recov", "disruption", "alarmed")
	for _, c := range rep.Cases {
		fmt.Fprintf(w, "%-18s %-13.4f %-10d %-8d %-9d %-10d %-11v %-11.4f %-8d\n",
			c.Name, c.Availability, c.PeakConcurrentLoads, c.LoadsQueued, c.LoadFailures,
			c.Failovers, c.P99Recovery, c.Disruption, c.AlarmedNodePackets)
	}
	fmt.Fprintf(w, "\nbudget bounded:         %v\nunbudgeted exceeds:     %v\nno traffic after alarm: %v\n",
		rep.BudgetBounded, rep.UnbudgetedExceeds, rep.NoTrafficAfterAlarm)
	var regs []*obs.Registry
	for _, c := range rep.Cases {
		regs = append(regs, c.Registry)
	}
	return outcome{report: rep, repro: rep.Repro, regs: regs}, nil
}

// runCoResidency runs the fleet8 multi-service co-residency drill: the
// failure storm against three services of different classes sharing
// one fleet, gated on latency-critical availability dominating bulk
// and the fleet-wide aggregate, bulk shedding strictly before
// latency-critical on banded nodes, and failover PR loads provably
// preempting the elective scale-out queue.
func runCoResidency(w io.Writer, o options, rec *obs.Recorder) (outcome, error) {
	rep, err := fleet.CoResidencyDrill(o.drillOptions(rec))
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "co-residency drill: %d services on %d devices, rack size %d, seed %d, budget %d\n",
		len(rep.Services), rep.Devices, rep.RackSize, rep.Seed, rep.Budget)
	fmt.Fprintf(w, "storm: %d injections over [%v, %v]; fleet availability %.4f\n\n",
		len(rep.Injections), rep.StormStart, rep.StormEnd, rep.FleetAvailability)
	fmt.Fprintf(w, "%-14s %-18s %-6s %-13s %-9s %-9s %-7s %-10s\n",
		"service", "class", "slo", "availability", "sent", "dropped", "shed", "p99")
	for _, s := range rep.Services {
		fmt.Fprintf(w, "%-14s %-18s %-6.3f %-13.4f %-9d %-9d %-7d %-10v\n",
			s.Name, s.Class, s.SLOAvailability, s.Availability, s.Sent, s.Dropped,
			s.Shed, s.P99)
	}
	fmt.Fprintf(w, "\nshed order: %d banded window-node observations, %d proofs, %d violations, %d lc packets shed\n",
		len(rep.ShedObservations), rep.ShedOrderProofs, rep.ShedOrderViolations, rep.LCShed)
	fmt.Fprintf(w, "electives: %d requested, %d placed, %d unplaced; %d preempted by failovers (%d grant-log pairs), peak load %d/%d\n",
		rep.ElectivesRequested, rep.ElectivesCompleted, rep.ElectivesUnplaced,
		rep.LoadsPreempted, len(rep.PreemptionPairs), rep.PeakConcurrentLoads, rep.Budget)
	fmt.Fprintf(w, "\nslo order held:    %v\nshed order held:   %v\nfailover preempts: %v\n",
		rep.SLOOrderHeld, rep.ShedOrderHeld, rep.FailoverPreempts)
	return outcome{report: rep, repro: rep.Repro, regs: []*obs.Registry{rep.Registry}}, nil
}

// runRebalance runs the fleet9 crash-safe rebalancing drill: a
// fragmented fleet rebalanced three times — a clean planned cycle under
// a corrupted delta frame and a stalled table read, a source kill
// mid-pre-copy degrading to snapshot-fallback failover, and a budget-1
// run where a concurrent failover preempts the pending moves.
func runRebalance(w io.Writer, o options, rec *obs.Recorder) (outcome, error) {
	rep, err := fleet.RebalanceDrill(o.drillOptions(rec))
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "crash-safe rebalancing drill: %s on %d devices, seed %d, budget %d, cold-restart bound %.4f\n\n",
		rep.App, rep.Devices, rep.Seed, rep.Budget, rep.ColdRestartBound)
	fmt.Fprintf(w, "%-12s %-9s %-9s %-8s %-8s %-8s %-11s %-10s %-10s %-6s %-6s %-7s\n",
		"case", "frag-pre", "frag-post", "done", "aborted", "retries",
		"disruption", "reclaimed", "fallbacks", "peak", "pairs", "budget")
	for _, cc := range rep.Cases {
		fmt.Fprintf(w, "%-12s %-9.4f %-9.4f %-8d %-8d %-8d %-11.4f %-10d %-10d %-6d %-6d %-7d\n",
			cc.Name, cc.FragScoreBefore, cc.FragScoreAfter, cc.MovesDone, cc.MovesAborted,
			cc.Retries, cc.Disruption, cc.QueuesReclaimed, cc.SnapshotFallbacks,
			cc.PeakConcurrentLoads, cc.PreemptionPairs, cc.Budget)
	}
	fmt.Fprintf(w, "\ncarries all flows:   %v\nfrag decreases:      %v\nfaulted within bound: %v\nfailover preempts:   %v\n",
		rep.CarriesAllFlows, rep.FragDecreases, rep.FaultedWithinBound, rep.FailoverPreempts)
	fmt.Fprintln(w, "\nrebalance moves:")
	for _, cc := range rep.Cases {
		for _, m := range cc.Records {
			if m.PlannedAt == 0 {
				continue
			}
			result := "done"
			if m.Aborted {
				result = "aborted"
			}
			fmt.Fprintf(w, "  %s: %s %s -> %s planned %v pre-copy %d delta %d retries %d %s\n",
				cc.Name, m.Replica, m.From, m.To, m.PlannedAt,
				m.PreCopyRows, m.DeltaRows, m.Retries, result)
		}
	}
	var regs []*obs.Registry
	for _, cc := range rep.Cases {
		regs = append(regs, cc.Registry)
	}
	return outcome{report: rep, repro: rep.Repro, regs: regs}, nil
}

// runSLO runs the fleet10 SLO drill: the failure storm against the
// co-resident fleet with error-budget windows, burn-rate alerting and
// causal postmortems armed, gated on the storm firing attributed
// latency-critical alerts, a fault-free control staying silent, every
// alert resolving inside the recovery bound, and byte-identical alert
// state across the batch-quantum/worker sweep.
func runSLO(w io.Writer, o options, rec *obs.Recorder) (outcome, error) {
	rep, err := fleet.SLODrill(o.drillOptions(rec))
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "slo drill: %d services on %d devices, rack size %d, seed %d, budget %d\n",
		len(rep.Services), rep.Devices, rep.RackSize, rep.Seed, rep.Budget)
	fmt.Fprintf(w, "storm: %d injections over [%v, %v]; windows %s; lookback %v\n\n",
		len(rep.Injections), rep.StormStart, rep.StormEnd,
		strings.Join(rep.Windows, ","), rep.Lookback)
	fmt.Fprintf(w, "%-14s %-18s %-9s %-13s %-10s %-8s %-9s\n",
		"service", "class", "target", "availability", "peak-burn", "firings", "resolves")
	for _, s := range rep.Services {
		fmt.Fprintf(w, "%-14s %-18s %-9.4f %-13.4f %-10.1f %-8d %-9d\n",
			s.Name, s.Class, s.Target, s.Availability, s.PeakFastBurn, s.Firings, s.Resolves)
	}
	fmt.Fprintf(w, "\nalerts: %d firings (%d latency-critical), %d unattributed; control: %d firings, %d attributions\n",
		rep.FiringsTotal, rep.FiringsLC, rep.UnattributedFirings,
		rep.ControlFirings, rep.ControlAttributions)
	fmt.Fprintf(w, "resolution: all resolved %v, last at %v, bound %v\n",
		rep.AllResolved, rep.LastResolvedAt, rep.RecoveryBound)
	fmt.Fprintf(w, "sweep: %s\n", strings.Join(rep.SweepVariants, "; "))
	if rep.Timeline != "" {
		fmt.Fprintf(w, "\n%s", rep.Timeline)
	}
	fmt.Fprintf(w, "\nalerts attributed: %v\nalerts resolved:   %v\ndeterministic:     %v\n",
		rep.AlertsAttributed, rep.AlertsResolved, rep.Deterministic)
	return outcome{report: rep, repro: rep.Repro, regs: []*obs.Registry{rep.Registry}}, nil
}

// traceRequiredCats lists the span kinds a chaos trace must carry —
// the tentpole taxonomy the tracecheck scenario (and CI's trace-smoke
// step) asserts on.
var traceRequiredCats = []obs.Cat{
	obs.CatPacket, obs.CatPRLoad, obs.CatHeartbeat, obs.CatMigration, obs.CatFault,
	obs.CatRack, obs.CatGossip,
}

// runTraceCheck validates a trace file: parseable Chrome trace-event
// JSON, complete event fields, monotonic timestamps, and at least one
// event of every required category. The default requirement is the
// chaos taxonomy; -cats overrides it (the rebalance trace, say,
// carries rebalance spans but no gossip).
func runTraceCheck(w io.Writer, o options) error {
	if o.tracePath == "" {
		return fmt.Errorf("tracecheck needs -trace <file>")
	}
	required := traceRequiredCats
	if strings.TrimSpace(o.cats) != "" {
		required = nil
		for _, part := range strings.Split(o.cats, ",") {
			if s := strings.TrimSpace(part); s != "" {
				required = append(required, obs.Cat(s))
			}
		}
	}
	data, err := os.ReadFile(o.tracePath)
	if err != nil {
		return err
	}
	stats, err := obs.ValidateTrace(data, required)
	if err != nil {
		return fmt.Errorf("tracecheck %s: %w", o.tracePath, err)
	}
	fmt.Fprintf(w, "trace ok: %s — %d events (%d metadata)\n",
		o.tracePath, stats.Events, stats.Metadata)
	for _, cat := range []obs.Cat{obs.CatPacket, obs.CatPRLoad, obs.CatHeartbeat,
		obs.CatHealth, obs.CatMigration, obs.CatFault, obs.CatCmd,
		obs.CatRack, obs.CatGossip, obs.CatRebalance, obs.CatSLO, obs.CatAlert} {
		if n := stats.ByCat[string(cat)]; n > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", cat, n)
		}
	}
	return nil
}

// parseSizes parses the -nodes list; empty means the default sweep.
func parseSizes(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -nodes entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
