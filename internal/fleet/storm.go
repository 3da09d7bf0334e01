package fleet

import (
	"fmt"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/net"
	"harmonia/internal/obs"
)

// What every failure-storm drill shares (fleet5 chaos, fleet8
// co-residency, fleet10 SLO) beyond its Workload: one options type, the
// gates, a case's traced set-up and the storm script's rendering. The
// backend pools and the evidence helpers at the bottom (flow pins,
// disruption, preemption pairs) also serve the fleet4 and fleet9
// drills.

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

// storm checks the options against a storm drill needing minDevices,
// then builds its workload at their size, seed and budget. The planned
// schedule gets its own trace process, so the Perfetto view shows what
// the storm intended alongside what each run applied.
func (o DrillOptions) storm(drill string, minDevices int, shape func(nodes int, seed int64) (Workload, *faults.Schedule, error)) (Workload, *faults.Schedule, error) {
	if err := o.check(drill, minDevices); err != nil {
		return Workload{}, nil, err
	}
	wl, sched, err := shape(o.Devices, o.Seed)
	if err == nil && o.Trace != nil {
		sched.Trace(o.Trace.Process("storm-plan").Track("schedule"))
	}
	wl.Budget = o.Budget
	return wl, sched, err
}

// startTraced runs a drill case's set-up stages: commission, place,
// label the metrics, record into the trace process name when rec is
// set, then start.
func startTraced(wl *Workload, rec *obs.Recorder, name string, labels map[string]string) (*Run, error) {
	c, err := wl.Commission()
	if err == nil {
		_, err = c.Place(0)
	}
	if err != nil {
		return nil, err
	}
	c.Metrics().SetConstLabels(labels)
	if rec != nil {
		c.SetTrace(rec.Process(name))
	}
	return wl.Start(c)
}

// injections renders the schedule as the human-readable storm script.
func injections(sched *faults.Schedule) []string {
	var out []string
	for _, inj := range sched.Injections {
		out = append(out, inj.String())
	}
	return out
}

// Each stateful drill starts from its own pool of eight backends,
// 10.<pool>.0.1-8.
const (
	migrationPool byte = 1 // fleet4
	chaosPool     byte = 2 // fleet5 and fleet8
	rebalancePool byte = 3 // fleet9
)

// drillService builds app's service of the given replica count with
// VIPs from vip; the layer-4 LB (chaosApp) is made stateful, pinning
// flows over pool's backends. Every drill's stateful LB is built here.
func drillService(app string, replicas int, vip net.IPAddr, pool byte) (Service, error) {
	info, err := apps.Lookup(app)
	if err != nil {
		return Service{}, err
	}
	svc := AppService(info, replicas, vip)
	if app == chaosApp {
		svc.Stateful, svc.Backends = true, backends(pool)
	}
	return svc, nil
}

// backends returns a fresh copy of a drill's initial backend pool.
func backends(pool byte) []net.IPAddr {
	out := make([]net.IPAddr, 8)
	for i := range out {
		out[i] = net.IPv4(10, pool, 0, byte(i+1))
	}
	return out
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
