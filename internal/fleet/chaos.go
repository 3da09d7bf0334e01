package fleet

import (
	"fmt"
	"sort"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The fleet5 chaos drill drives a fleet through one seeded failure
// storm (internal/faults) three times — unbudgeted with the static
// degraded penalty, budgeted with the static penalty, and budgeted
// with thermal-derived shedding — and measures what the defenses buy:
// availability (fraction of routed packets landing on healthy
// replicas), PR-load concurrency and queueing, recovery-time
// distribution, flow disruption and command-path retransmissions. All
// three cases replay the identical injection schedule, so the columns
// are directly comparable and the whole report reproduces from one
// seed.

// chaosApp is the stateful service the drill storms.
const chaosApp = "layer4-lb"

// ChaosWindow is one measurement window of a chaos case.
type ChaosWindow struct {
	// At is the window's end on the cluster clock.
	At sim.Time `json:"at_ps"`
	// Availability is healthy-served/sent within the window (1 when the
	// window offered nothing).
	Availability   float64 `json:"availability"`
	Sent           int64   `json:"sent"`
	Served         int64   `json:"served"`
	Dropped        int64   `json:"dropped"`
	Healthy        int     `json:"healthy"`
	Degraded       int     `json:"degraded"`
	Down           int     `json:"down"`
	LoadsInflight  int     `json:"loads_inflight"`
	LoadsQueued    int     `json:"loads_queued"`
	RampPenalty    float64 `json:"ramp_penalty"`
	AlarmedPackets int64   `json:"alarmed_packets"`
}

// ChaosCase is one full storm replay under one defense configuration.
type ChaosCase struct {
	Name            string `json:"name"`
	Budgeted        bool   `json:"budgeted"`
	Budget          int    `json:"budget"`
	DerivedShedding bool   `json:"derived_shedding"`

	// Availability is healthy-served/sent over the whole storm.
	Availability float64 `json:"availability"`
	Sent         int64   `json:"sent"`
	Served       int64   `json:"served"`
	Dropped      int64   `json:"dropped"`

	// PeakConcurrentLoads is the highest concurrent PR-load count the
	// storm reached; the budgeted cases must keep it at or under Budget.
	PeakConcurrentLoads int   `json:"peak_concurrent_loads"`
	LoadsQueued         int   `json:"loads_queued"`
	LoadFailures        int64 `json:"load_failures"`

	// Failovers and the recovery distribution (detection → last
	// replacement ready).
	Failovers   int      `json:"failovers"`
	P99Recovery sim.Time `json:"p99_recovery_ps"`
	MaxRecovery sim.Time `json:"max_recovery_ps"`

	// Flow disruption: of the flows established before the storm, how
	// many land on a different backend after it.
	FlowsEstablished int     `json:"flows_established"`
	FlowsDisrupted   int     `json:"flows_disrupted"`
	Disruption       float64 `json:"disruption"`

	// Migration path split: live table reads vs periodic-snapshot
	// fallbacks, and the stalest snapshot restored.
	MigrationsLive     int      `json:"migrations_live"`
	MigrationsSnapshot int      `json:"migrations_snapshot"`
	MaxSnapshotAge     sim.Time `json:"max_snapshot_age_ps"`

	// AlarmedNodePackets counts packets that landed on a node during
	// windows it spent fully degraded (alarm fired). Derived shedding
	// must hold this at zero; the static penalty does not.
	AlarmedNodePackets int64 `json:"alarmed_node_packets"`

	// Unplaced is how many replicas ended the storm without a home.
	Unplaced int `json:"unplaced"`

	// The storm's command-path traffic: transactions issued, retried
	// and lost.
	CmdIssued  int64 `json:"cmd_issued"`
	CmdRetries int64 `json:"cmd_retries"`
	CmdDrops   int64 `json:"cmd_drops"`

	// Metrics is the case's end-of-storm registry snapshot (summaries
	// expanded to _count/_sum/quantile keys) — the same series the
	// Prometheus exposition carries, embedded so the artifact is
	// self-contained. Registry is the live registry for that export;
	// the cluster itself is discarded per case.
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Windows  []ChaosWindow      `json:"windows"`
	Registry *obs.Registry      `json:"-"`
}

// ChaosResult is the fleet5 report and the machine-readable artifact
// (BENCH_chaos.json): a header, the storm and every case, the
// acceptance gates pre-evaluated so CI can assert on the artifact
// without re-deriving them, and the one-command repro line.
type ChaosResult struct {
	Experiment string `json:"experiment"` // always "fleet5"
	App        string `json:"app"`

	Devices  int   `json:"devices"`
	RackSize int   `json:"rack_size"`
	Seed     int64 `json:"seed"`
	Budget   int   `json:"budget"`
	// StormStart/StormEnd bound the replayed schedule; Injections is
	// the human-readable storm script.
	StormStart sim.Time    `json:"storm_start_ps"`
	StormEnd   sim.Time    `json:"storm_end_ps"`
	Injections []string    `json:"injections"`
	Cases      []ChaosCase `json:"cases"`

	// The acceptance gates:
	//   - BudgetBounded: every budgeted case kept concurrent PR loads
	//     at or under the configured cap;
	//   - UnbudgetedExceeds: the unbudgeted fleet blew past that cap
	//     during the mass failover (the budget is load-bearing);
	//   - NoTrafficAfterAlarm: under derived shedding no packet landed
	//     on a node during a window it spent degraded.
	BudgetBounded       bool `json:"budget_bounded"`
	UnbudgetedExceeds   bool `json:"unbudgeted_exceeds"`
	NoTrafficAfterAlarm bool `json:"no_traffic_after_alarm"`

	// Repro rebuilds this exact report from the seed.
	Repro string `json:"repro"`
}

// Failures names every fleet5 gate that did not hold.
func (r *ChaosResult) Failures() []string {
	return failedGates(
		gate{"budget_bounded", r.BudgetBounded},
		gate{"unbudgeted_exceeds", r.UnbudgetedExceeds},
		gate{"no_traffic_after_alarm", r.NoTrafficAfterAlarm},
	)
}

// chaosBackends is the drill's initial backend pool.
func chaosBackends() []net.IPAddr {
	out := make([]net.IPAddr, 8)
	for i := range out {
		out[i] = net.IPv4(10, 2, 0, byte(i+1))
	}
	return out
}

// chaosTraffic derives one window's deterministic traffic phase.
func chaosTraffic(seed int64, window int) []Traffic {
	return []Traffic{{
		Service: chaosApp, OfferedGbps: 400, PktBytes: 1024,
		Flows: 2048, Jitter: 0.2,
		Seed: seed*1_000_003 + int64(window+1)*1000,
	}}
}

// applyInjection maps one schedule entry onto control-plane actions.
func applyInjection(c *Cluster, nodes []*Node, inj faults.Injection) error {
	id := ""
	if inj.Node >= 0 {
		if inj.Node >= len(nodes) {
			return fmt.Errorf("fleet: injection targets node %d of %d", inj.Node, len(nodes))
		}
		id = nodes[inj.Node].ID
	}
	c.traceFault(string(inj.Kind), id, int64(inj.Arg))
	switch inj.Kind {
	case faults.KillNode:
		return c.Kill(id)
	case faults.LinkDown:
		return c.CutLink(c.Now(), id)
	case faults.LinkUp:
		if err := c.Revive(c.Now(), id); err != nil {
			return err
		}
		// The scheduler may re-place still-unplaced replicas onto the
		// revived device; failure just leaves them pending.
		_, _ = c.Place(c.Now())
		return nil
	case faults.ThermalSet:
		if inj.Arg == 0 {
			return c.Cool(id)
		}
		return c.Overheat(id, inj.Arg)
	case faults.CorruptStart:
		limit := int(inj.Arg)
		nodes[inj.Node].Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
			if attempt < limit && len(buf) > 0 {
				buf[0] ^= 0xFF
			}
			return buf
		})
		return nil
	case faults.CorruptEnd:
		nodes[inj.Node].Inst.SetWireFaultInjector(nil)
		return nil
	case faults.PRFaultStart:
		fn := faults.LoadFailureFn(c.cfg.Seed, inj.Prob)
		c.SetPRLoadFault(func(node, tenant string, slot, attempt int) bool {
			return fn(node, tenant, attempt)
		})
		return nil
	case faults.PRFaultEnd:
		c.SetPRLoadFault(nil)
		return nil
	case faults.DrainBackend:
		_, err := c.RemoveBackend(chaosApp, chaosBackends()[inj.Arg], false)
		return err
	}
	return fmt.Errorf("fleet: unknown injection kind %q", inj.Kind)
}

// runChaosCase replays the schedule against a fresh fleet under one
// defense configuration.
func runChaosCase(opts DrillOptions, sched *faults.Schedule, name string, budgeted, derived bool) (*ChaosCase, error) {
	info, err := apps.Lookup(chaosApp)
	if err != nil {
		return nil, err
	}
	svc := AppService(info, opts.Devices, net.IPv4(20, 0, 0, 1))
	svc.Stateful = true
	svc.Backends = chaosBackends()
	c, err := BuildServiceCluster(stormConfig(opts.Seed, derived), svc, opts.Devices)
	if err != nil {
		return nil, err
	}
	c.Metrics().SetConstLabels(map[string]string{"case": name})
	if opts.Trace != nil {
		c.SetTrace(opts.Trace.Process(name))
	}
	// Arm the defense under test.
	limit := 0
	if budgeted {
		limit = opts.Budget
	}
	st, err := startStorm(c, sched, limit, func(w int) []Traffic { return chaosTraffic(opts.Seed, w) })
	if err != nil {
		return nil, err
	}
	// Pre-storm flow pins: the disruption measurement's ground truth.
	pins := flowPins(c.Replicas())

	cc := &ChaosCase{Name: name, Budgeted: budgeted, Budget: limit, DerivedShedding: derived}
	nodes := st.nodes
	preStats := c.RouterStats()
	preCmd := c.CmdPath()
	var rampNode *Node
	if len(sched.Ramped) > 0 {
		rampNode = nodes[sched.Ramped[0]]
	}

	degradedRx := make(map[int]int64)
	for w := 0; w < stormWindows; w++ {
		if err := st.inject(w); err != nil {
			return nil, err
		}
		// Nodes fully degraded across the window: record ingress before.
		clear(degradedRx)
		for i, n := range nodes {
			if n.state == Degraded {
				degradedRx[i] = n.Net.RxStats().Units
			}
		}
		before := c.RouterStats()
		if _, err := st.serve(w); err != nil {
			return nil, err
		}
		after := c.RouterStats()

		win := ChaosWindow{
			At:      c.Now(),
			Sent:    after.Sent - before.Sent,
			Served:  after.Served - before.Served,
			Dropped: after.Dropped - before.Dropped,
		}
		win.Availability = 1
		if win.Sent > 0 {
			win.Availability = float64(after.HealthyServed-before.HealthyServed) / float64(win.Sent)
		}
		for i, n := range nodes {
			switch n.state {
			case Healthy:
				win.Healthy++
			case Degraded:
				win.Degraded++
				if rx, was := degradedRx[i]; was {
					d := n.Net.RxStats().Units - rx
					win.AlarmedPackets += d
					cc.AlarmedNodePackets += d
				}
			default:
				win.Down++
			}
		}
		if rampNode != nil {
			win.RampPenalty = c.ThermalPenalty(rampNode.LastTemp())
		}
		cc.Windows = append(cc.Windows, win)
	}

	// Budget occupancy per window, reconstructed from the grant log.
	events := c.LoadEvents()
	for i := range cc.Windows {
		t := cc.Windows[i].At
		for _, e := range events {
			switch {
			case e.Start <= t && t < e.Done:
				cc.Windows[i].LoadsInflight++
			case e.ReqAt <= t && t < e.Start:
				cc.Windows[i].LoadsQueued++
			}
		}
	}

	post := c.RouterStats()
	cc.Sent = post.Sent - preStats.Sent
	cc.Served = post.Served - preStats.Served
	cc.Dropped = post.Dropped - preStats.Dropped
	if cc.Sent > 0 {
		cc.Availability = float64(post.HealthyServed-preStats.HealthyServed) / float64(cc.Sent)
	}
	cc.PeakConcurrentLoads = c.LoadBudgetPeak()
	cc.LoadsQueued = c.LoadsQueued()
	cc.LoadFailures = c.LoadFailures()
	postCmd := c.CmdPath()
	cc.CmdIssued = postCmd.Issued - preCmd.Issued
	cc.CmdRetries = postCmd.Retries - preCmd.Retries
	cc.CmdDrops = postCmd.Drops - preCmd.Drops

	// Recovery distribution over the storm's failovers.
	var recoveries []sim.Time
	for _, f := range c.Failovers() {
		if f.DetectedAt < st.start {
			continue
		}
		cc.Failovers++
		recoveries = append(recoveries, f.RecoveredAt-f.DetectedAt)
	}
	sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
	if n := len(recoveries); n > 0 {
		cc.P99Recovery = recoveries[min((n*99+99)/100, n)-1]
		cc.MaxRecovery = recoveries[n-1]
	}

	// Migration path split.
	for _, m := range c.Migrations() {
		if m.Live {
			cc.MigrationsLive++
		} else {
			cc.MigrationsSnapshot++
			if m.SnapshotAge > cc.MaxSnapshotAge {
				cc.MaxSnapshotAge = m.SnapshotAge
			}
		}
	}

	// Flow disruption vs the pre-storm pins; a replica that lost its
	// home disrupts every flow it held.
	for _, r := range c.Replicas() {
		cc.FlowsEstablished += len(pins[r.Name()])
		cc.FlowsDisrupted += disrupted(r, pins[r.Name()])
		if r.Node == "" {
			cc.Unplaced++
		}
	}
	if cc.FlowsEstablished > 0 {
		cc.Disruption = float64(cc.FlowsDisrupted) / float64(cc.FlowsEstablished)
	}
	// The cluster is discarded with the case; carry its registry out so
	// the drill can embed the snapshot in JSON and export Prometheus
	// text per case.
	cc.Registry = c.Metrics()
	cc.Metrics = cc.Registry.Values()
	return cc, nil
}

// ChaosDrill runs the fleet5 experiment: one seeded storm, replayed
// against three fleets — unbudgeted/static, budgeted/static and
// budgeted/derived-shedding.
func ChaosDrill(opts DrillOptions) (*ChaosResult, error) {
	if err := opts.check("chaos", 4); err != nil {
		return nil, err
	}
	sched, err := stormPlan(opts, false)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{
		Experiment: "fleet5", App: chaosApp,
		Devices: opts.Devices, RackSize: sched.Spec.RackSize,
		Seed: opts.Seed, Budget: opts.Budget,
		StormStart: sched.Spec.Start, StormEnd: sched.End(),
		Injections: injections(sched),
	}
	for _, cs := range []struct {
		name              string
		budgeted, derived bool
	}{
		{"unbudgeted-static", false, false},
		{"budgeted-static", true, false},
		{"budgeted-derived", true, true},
	} {
		cc, err := runChaosCase(opts, sched, cs.name, cs.budgeted, cs.derived)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos case %s: %w", cs.name, err)
		}
		res.Cases = append(res.Cases, *cc)
	}
	res.BudgetBounded = true
	for _, c := range res.Cases {
		switch {
		case c.Budgeted && c.PeakConcurrentLoads > c.Budget:
			res.BudgetBounded = false
		case !c.Budgeted && c.PeakConcurrentLoads > res.Budget:
			res.UnbudgetedExceeds = true
		}
		if c.DerivedShedding {
			res.NoTrafficAfterAlarm = c.AlarmedNodePackets == 0
		}
	}
	res.Repro = stormRepro("chaos", opts)
	return res, nil
}
