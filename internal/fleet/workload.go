package fleet

import (
	"fmt"

	"harmonia/internal/faults"
	"harmonia/internal/hdl"
	"harmonia/internal/net"
	"harmonia/internal/sim"
)

// Workload is one seeded run definition: the fleet to commission, the
// traffic each window offers, and the script that disturbs the fleet
// once the warm-up ends. Its stages are plain calls, in this order, so
// a caller can label, trace or time the fleet between them:
//
//	c, err := w.Commission() // new cluster, services, nodes
//	_, err = c.Place(0)      // initial placement
//	r, err := w.Start(c)     // settle, warm up, arm the budget, build the script
//	for win := 0; win < w.Windows; win++ {
//		err = r.Script(win)            // the window's disturbance
//		st, deltas, err := r.Serve(win) // the window's traffic
//	}
//
// Script and Serve stay two calls so a drill can measure between them.
type Workload struct {
	Config   Config
	Services []Service
	// Nodes is the fleet size; nodes cycle the catalog models that can
	// host every service.
	Nodes int
	// Warmup is the serving phase that establishes flows before the
	// first window (a phase cannot be empty); Windows windows of length
	// Window follow it.
	Warmup  sim.Time
	Window  sim.Time
	Windows int
	// Traffic derives window w's traffic; w = -1 is the warm-up.
	Traffic func(w int) []Traffic
	// Budget is the concurrent PR-load cap (0: uncapped) armed, with
	// Arm, when the warm-up ends.
	Budget int
	// Arm builds the per-window script once the warm-up ends and the
	// budget is armed. nil runs the fleet undisturbed and leaves the
	// budget, and the placement grants in its history, untouched.
	Arm func(r *Run) (func(w int) error, error)
}

// Run is a started Workload on its fleet.
type Run struct {
	Workload *Workload
	Cluster  *Cluster
	// Start is the instant the warm-up ended and the first window opens.
	Start  sim.Time
	Warmup PhaseStats
	script func(w int) error
	deltas serviceDeltas
}

// Commission builds the workload's fleet: a new cluster, its services
// (registered first, so their merged demand set shapes every shell) and
// its nodes. Placement is the caller's next call.
func (w *Workload) Commission() (*Cluster, error) {
	switch {
	case w.Nodes < 1:
		return nil, fmt.Errorf("fleet: workload needs at least 1 node, got %d", w.Nodes)
	case w.Window <= 0:
		return nil, fmt.Errorf("fleet: workload window must be positive, got %v", w.Window)
	case w.Windows < 0:
		return nil, fmt.Errorf("fleet: workload window count must not be negative, got %d", w.Windows)
	case w.Warmup <= 0:
		return nil, fmt.Errorf("fleet: workload warm-up must be positive, got %v", w.Warmup)
	case w.Traffic == nil:
		return nil, fmt.Errorf("fleet: workload has no traffic")
	case w.Budget != 0 && w.Arm == nil:
		return nil, fmt.Errorf("fleet: workload budget %d needs an Arm to arm it with", w.Budget)
	}
	return commission(w.Config, w.Services, w.Nodes)
}

// Start brings a commissioned, placed fleet to its first window: the
// monitor settles the placement and the warm-up serves. With an Arm,
// the PR-load budget is then armed — which also resets the budget's
// grant history, so warm-up placement does not count toward a later
// peak — and Arm builds the window script.
func (w *Workload) Start(c *Cluster) (*Run, error) {
	c.RunMonitorUntil(2 * c.cfg.ReconfigTime)
	warmup, err := c.ServeMulti(w.Warmup, w.Traffic(-1))
	if err != nil {
		return nil, err
	}
	r := &Run{Workload: w, Cluster: c, Start: c.Now(), Warmup: warmup,
		script: func(int) error { return nil }}
	if w.Arm != nil {
		c.SetLoadBudget(w.Budget)
		if r.script, err = w.Arm(r); err != nil {
			return nil, err
		}
	}
	r.deltas = newServiceDeltas(c)
	return r, nil
}

// Script applies window w's disturbance.
func (r *Run) Script(w int) error { return r.script(w) }

// Serve serves window w's traffic and returns its statistics and each
// service's counter deltas over it, in Cluster.Services order; the
// slice is reused by the next call.
func (r *Run) Serve(w int) (PhaseStats, []ServiceSnapshot, error) {
	st, err := r.Cluster.ServeMulti(r.Workload.Window, r.Workload.Traffic(w))
	if err != nil {
		return st, nil, err
	}
	return st, r.deltas.step(), nil
}

// serviceDeltas turns each service's cumulative counters into the
// change since the previous step.
type serviceDeltas struct {
	c           *Cluster
	svcs        []string
	prev, delta []ServiceSnapshot
}

// newServiceDeltas counts from the services' current counters.
func newServiceDeltas(c *Cluster) serviceDeltas {
	d := serviceDeltas{c: c, svcs: c.Services()}
	for _, s := range d.svcs {
		d.prev = append(d.prev, c.ServiceStats(s))
	}
	d.delta = make([]ServiceSnapshot, len(d.svcs))
	return d
}

// step returns each service's counter change since the previous step,
// in svcs order; the slice is reused by the next step.
func (d *serviceDeltas) step() []ServiceSnapshot {
	for i, s := range d.svcs {
		cur := d.c.ServiceStats(s)
		d.delta[i] = cur.sub(d.prev[i])
		d.prev[i] = cur
	}
	return d.delta
}

// ratio is num/den, or empty when den is not positive: availability
// (healthy-served over sent) and flow disruption (disrupted over
// established) in every drill.
func ratio[T int | int64](num, den T, empty float64) float64 {
	if den <= 0 {
		return empty
	}
	return float64(num) / float64(den)
}

// The storm shapes. Both replay a seeded failure storm (internal/faults)
// on the scale plane: health dissemination on the gossip detector and
// dispatch on the rack-first path, the plane the 10k bench gates.
const (
	// stormWindowDur is the measurement window; injections due inside a
	// window are applied at its start (deterministic discretization).
	stormWindowDur = 100 * sim.Microsecond
	// stormWindows spans the storm plus the recovery tail.
	stormWindows = 160
	// stormWarmup is the pre-storm serving phase establishing flows.
	stormWarmup = 200 * sim.Microsecond
)

// ChaosWorkload is the fleet5 storm: the stateful layer-4 LB on every
// node under faults.DefaultStorm, with thermal-derived shedding armed.
// It also returns the storm's schedule, which Arm replays from the
// warm-up's end; seed drives the storm, the traffic and the fleet.
func ChaosWorkload(nodes int, seed int64) (Workload, *faults.Schedule, error) {
	w, sched, err := stormWorkload(nodes, seed, false, stormService{app: chaosApp, replicas: nodes})
	w.Traffic = func(win int) []Traffic {
		return []Traffic{{Service: chaosApp, OfferedGbps: 400, PktBytes: 1024, Flows: 2048, Jitter: 0.2,
			Seed: seed*1_000_003 + int64(win+1)*1000}}
	}
	return w, sched, err
}

// CoResidencyWorkload is the fleet8 storm: three co-resident services
// on bigger slots under the slow-ramp storm — the stateful LB and the
// security gateway latency-critical, retrieval bulk — and an elective
// scale-out of the bulk service queued behind the PR-load budget when
// the storm starts.
func CoResidencyWorkload(nodes int, seed int64) (Workload, *faults.Schedule, error) {
	w, sched, err := stormWorkload(nodes, seed, true,
		stormService{chaosApp, nodes, ClassLatencyCritical, 0.999},
		stormService{coresBulkApp, nodes / 2, ClassBulk, 0.90},
		stormService{coresSecApp, nodes / 4, ClassLatencyCritical, 0.999})
	w.Config.SlotRes = coresSlotRes
	w.Traffic = func(win int) []Traffic { return coresTraffics(seed, win) }
	w.Arm = stormArm(sched, true)
	return w, sched, err
}

// stormService is one service of a storm shape; the layer-4 LB is the
// stateful one, and the i-th service takes VIPs from 20+10i.0.0.1.
type stormService struct {
	app          string
	replicas     int
	class        ServiceClass
	availability float64
}

// coresSlotRes is the co-resident fleet's slot size: retrieval's role
// logic (180k LUT, 2048 DSP) outgrows the default slot budget, so the
// fleet carves bigger slots — the catalog's large chips still yield 2-3
// per device.
var coresSlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}

// stormWorkload is what both storm shapes share: the scale-plane
// Config, the storm's timing and its schedule. slowRamp slows the
// thermal runaway from fleet5's 6°C per half-window — which crosses the
// whole bulk-shed band inside one measurement window — to one step
// every two windows, ramping more nodes and cooling after the full
// climb, so band residency is observable at window granularity.
func stormWorkload(nodes int, seed int64, slowRamp bool, svcs ...stormService) (Workload, *faults.Schedule, error) {
	w := Workload{Nodes: nodes, Warmup: stormWarmup, Window: stormWindowDur, Windows: stormWindows}
	for i, s := range svcs {
		svc, err := drillService(s.app, s.replicas, net.IPv4(20+10*byte(i), 0, 0, 1), chaosPool)
		if err != nil {
			return w, nil, err
		}
		svc.Class, svc.SLO = s.class, SLO{Availability: s.availability}
		w.Services = append(w.Services, svc)
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.GossipHealth, cfg.RackP2C = true, true
	// A wide fanout keeps thermal readings fresh enough for derived
	// shedding on a 300-node fleet.
	cfg.GossipFanout, cfg.GossipPiggyback = 32, 8
	// Gossip probes reach a given node only once per rotation period, so
	// capture a connection-table snapshot on every successful probe to
	// keep dead-node fallbacks reasonably fresh.
	cfg.SnapshotEvery = 1
	cfg.DerivedShedding = true
	// The storm's runaway ramps 6°C every 50µs, so the default 10°C shed
	// span would be crossed inside one measurement window; a wider span
	// spreads the derating across several windows, making the gradual
	// shedding observable in the penalty series and the class shedding
	// order's pre-alarm band observable across windows. Static shedding
	// reads the span only for the chaos drill's penalty series.
	cfg.ShedStartMilliC = cfg.DegradeMilliC - 40_000

	spec := faults.DefaultStorm(nodes, seed)
	spec.Start = 2*cfg.ReconfigTime + stormWarmup
	if slowRamp {
		spec.ThermalEvery = 2 * stormWindowDur
		spec.ThermalCoolAt = 40 * stormWindowDur
		spec.ThermalNodes = max(nodes/40, 2)
	}
	sched, err := faults.Storm(spec)
	w.Config, w.Arm = cfg, stormArm(sched, false)
	return w, sched, err
}

// stormArm replays sched from the warm-up's end: every injection due
// before a window ends applies at that window's start. scaleOut first
// fires fleet8's elective scale-out: the bulk service grows by more
// replicas than the budget admits at once, so a queue forms for the
// storm's failovers to preempt.
func stormArm(sched *faults.Schedule, scaleOut bool) func(r *Run) (func(w int) error, error) {
	return func(r *Run) (func(w int) error, error) {
		c := r.Cluster
		if r.Start != sched.Spec.Start {
			return nil, fmt.Errorf("fleet: storm scheduled for %v but warmup ended at %v",
				sched.Spec.Start, r.Start)
		}
		if scaleOut {
			if err := c.ScaleService(r.Start, coresBulkApp, coresScaleOutFor(r.Workload.Budget)); err != nil {
				return nil, err
			}
		}
		nodes, next := c.Nodes(), 0
		return func(w int) error {
			end := r.Start + sim.Time(w+1)*r.Workload.Window
			for ; next < len(sched.Injections) && sched.Injections[next].At < end; next++ {
				inj := sched.Injections[next]
				if err := applyInjection(c, nodes, inj); err != nil {
					return fmt.Errorf("fleet: injection %v: %w", inj, err)
				}
			}
			return nil
		}, nil
	}
}
