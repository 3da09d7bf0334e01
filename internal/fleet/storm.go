package fleet

import (
	"fmt"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/hdl"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The storm driver every failure-storm drill shares (fleet5 chaos,
// fleet8 co-residency, fleet10 SLO): one options type, the seeded
// storm plan, the scale-plane fleet configuration, the warm-up up to
// the storm's start, and the window loop's injection cursor. The
// drills keep only what they measure around each window; the gate
// helpers and the evidence helpers at the bottom (flow pins,
// disruption, preemption pairs) also serve the fleet4 and fleet9
// drills.

// stormWindowDur is the measurement window; injections due inside a
// window are applied at its start (deterministic discretization).
const stormWindowDur = 100 * sim.Microsecond

// stormWindows spans the storm plus the recovery tail.
const stormWindows = 160

// stormWarmup is the pre-storm serving phase establishing flows.
const stormWarmup = 200 * sim.Microsecond

// DrillOptions shapes every storm and rebalance drill.
type DrillOptions struct {
	// Devices is the fleet size.
	Devices int
	// Budget is the concurrent PR-load cap the drill enforces.
	Budget int
	// Seed drives the storm schedule, traffic and router sampling.
	Seed int64
	// Trace, when set, records the drill's runs into trace processes
	// (plus a storm-plan process carrying the injection schedule). Use
	// an unbounded recorder for full exports or a flight recorder for
	// the always-on gate-failure dump.
	Trace *obs.Recorder
}

// gate is one drill acceptance check, named by its artifact JSON key.
type gate struct {
	name string
	ok   bool
}

// failedGates names every gate that did not hold, in artifact order.
// A result whose gates were never evaluated fails every one of them.
func failedGates(gates ...gate) []string {
	var out []string
	for _, g := range gates {
		if !g.ok {
			out = append(out, g.name)
		}
	}
	return out
}

// stormRepro is the one-command reproduction line of a storm drill run.
func stormRepro(scenario string, o DrillOptions) string {
	return fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario %s -devices %d -seed %d -budget %d",
		scenario, o.Devices, o.Seed, o.Budget)
}

// check rejects a fleet too small for the drill or a missing budget.
func (o DrillOptions) check(drill string, minDevices int) error {
	if o.Devices < minDevices {
		return fmt.Errorf("fleet: %s drill needs at least %d devices, got %d", drill, minDevices, o.Devices)
	}
	if o.Budget <= 0 {
		return fmt.Errorf("fleet: %s drill needs a positive budget, got %d", drill, o.Budget)
	}
	return nil
}

// stormPlan derives the drill's seeded failure storm, starting when
// the warm-up ends. slowRamp slows the thermal runaway from fleet5's 6°C
// per half-window — which crosses the whole bulk-shed band inside one
// measurement window — to one step every two windows, ramping more
// nodes and cooling after the full climb, so band residency is
// observable at window granularity.
func stormPlan(opts DrillOptions, slowRamp bool) (*faults.Schedule, error) {
	spec := faults.DefaultStorm(opts.Devices, opts.Seed)
	spec.Start = 2*DefaultConfig().ReconfigTime + stormWarmup
	if slowRamp {
		spec.ThermalEvery = 2 * stormWindowDur
		spec.ThermalCoolAt = 40 * stormWindowDur
		spec.ThermalNodes = max(opts.Devices/40, 2)
	}
	sched, err := faults.Storm(spec)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		// The planned schedule gets its own process, so the Perfetto view
		// shows what the storm intended alongside what each run applied.
		sched.Trace(opts.Trace.Process("storm-plan").Track("schedule"))
	}
	return sched, nil
}

// injections renders the schedule as the human-readable storm script.
func injections(sched *faults.Schedule) []string {
	var out []string
	for _, inj := range sched.Injections {
		out = append(out, inj.String())
	}
	return out
}

// coresSlotRes is the co-resident fleet's slot size: retrieval's role
// logic (180k LUT, 2048 DSP) outgrows the default slot budget, so the
// fleet carves bigger slots — the catalog's large chips still yield 2-3
// per device.
var coresSlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}

// stormConfig is the scale-plane configuration the storm drills run:
// health dissemination on the gossip detector and dispatch on the
// rack-first path — the plane the 10k bench gates — so a storm
// validates detection bounds and availability under exactly that plane.
// derived arms thermal-derived shedding.
func stormConfig(seed int64, derived bool) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	// A wide fanout keeps thermal readings fresh enough for derived
	// shedding on a 300-node fleet.
	cfg.GossipHealth = true
	cfg.GossipFanout = 32
	cfg.GossipPiggyback = 8
	cfg.RackP2C = true
	// Gossip probes reach a given node only once per rotation period, so
	// capture a connection-table snapshot on every successful probe to
	// keep dead-node fallbacks reasonably fresh.
	cfg.SnapshotEvery = 1
	cfg.DerivedShedding = derived
	// The storm's runaway ramps 6°C every 50µs, so the default 10°C shed
	// span would be crossed inside one measurement window; a wider span
	// spreads the derating across several windows, making the gradual
	// shedding observable in the penalty series and the class shedding
	// order's pre-alarm band observable across windows. Static shedding
	// reads the span only for the chaos drill's penalty series.
	cfg.ShedStartMilliC = cfg.DegradeMilliC - 40_000
	return cfg
}

// storm is one storm replay in progress against one fleet.
type storm struct {
	c     *Cluster
	sched *faults.Schedule
	nodes []*Node
	// start is the storm's first instant on the cluster clock.
	start sim.Time
	// next is the injection cursor: the first schedule entry not yet
	// applied.
	next int
	// traffics derives one window's deterministic traffic (window -1 is
	// the warm-up).
	traffics func(window int) []Traffic
}

// startStorm brings a freshly built fleet to the storm's start: the
// monitor settles the initial placement, a warm-up phase establishes
// flows, and the PR-load budget is armed — which also resets the
// budget's grant history, so warm-up placement does not contaminate
// the storm's peak.
func startStorm(c *Cluster, sched *faults.Schedule, budget int, traffics func(window int) []Traffic) (*storm, error) {
	c.RunMonitorUntil(2 * c.cfg.ReconfigTime)
	if _, err := c.ServeMulti(stormWarmup, traffics(-1)); err != nil {
		return nil, err
	}
	c.SetLoadBudget(budget)
	s := &storm{c: c, sched: sched, nodes: c.Nodes(), start: c.Now(), traffics: traffics}
	if s.start != sched.Spec.Start {
		return nil, fmt.Errorf("fleet: storm scheduled for %v but warmup ended at %v",
			sched.Spec.Start, s.start)
	}
	return s, nil
}

// inject applies every injection due before window w ends.
func (s *storm) inject(w int) error {
	end := s.start + sim.Time(w+1)*stormWindowDur
	for ; s.next < len(s.sched.Injections) && s.sched.Injections[s.next].At < end; s.next++ {
		inj := s.sched.Injections[s.next]
		if err := applyInjection(s.c, s.nodes, inj); err != nil {
			return fmt.Errorf("fleet: injection %v: %w", inj, err)
		}
	}
	return nil
}

// serve runs window w's traffic.
func (s *storm) serve(w int) error {
	_, err := s.c.ServeMulti(stormWindowDur, s.traffics(w))
	return err
}

// flowPins captures every stateful replica's pinned flows by replica
// name: the ground truth a disruption measurement compares against.
func flowPins(replicas []*Replica) map[string][]apps.ConnEntry {
	pins := make(map[string][]apps.ConnEntry)
	for _, r := range replicas {
		if r.flows != nil {
			pins[r.Name()] = r.flows.table.Snapshot()
		}
	}
	return pins
}

// disrupted counts the pinned flows r no longer sends to their pinned
// backend; a replica that lost its home disrupts every flow it held.
func disrupted(r *Replica, pins []apps.ConnEntry) int {
	if r == nil || r.Node == "" || r.flows == nil {
		return len(pins)
	}
	n := 0
	for _, e := range pins {
		if r.flows.assignment(e.Key) != e.Backend {
			n++
		}
	}
	return n
}

// maxPreemptionPairs caps the grant-log evidence a drill reports.
const maxPreemptionPairs = 16

// preemptionPairs finds every (elective, failover) grant pair in the
// log where the elective asked first but the failover started first.
func preemptionPairs(events []LoadEvent) []PreemptionPair {
	var out []PreemptionPair
	for _, f := range events {
		if f.Class != LoadFailover {
			continue
		}
		for _, e := range events {
			if e.Class != LoadElective || e.ReqAt >= f.ReqAt || f.Start >= e.Start {
				continue
			}
			out = append(out, PreemptionPair{
				ElectiveNode: e.Node, ElectiveReqAt: e.ReqAt, ElectiveStart: e.Start,
				FailoverNode: f.Node, FailoverReqAt: f.ReqAt, FailoverStart: f.Start,
			})
			if len(out) >= maxPreemptionPairs {
				return out
			}
		}
	}
	return out
}
