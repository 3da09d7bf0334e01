package fleet

import (
	"fmt"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/hdl"
	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The fleet8 co-residency drill deploys three services with distinct
// demand sets and classes onto one shared fleet — the stateful layer-4
// LB and the security gateway latency-critical, retrieval bulk — and
// drives the fleet5 failure storm through it with every defense armed
// (budget, retries, derived shedding, gossip + rack plane). What fleet5
// measured fleet-wide, this drill measures per service: the SLO-aware
// control plane must (1) keep each latency-critical service's storm
// availability at or above its SLO, above the bulk service's, and
// above the fleet-wide aggregate; (2) shed bulk strictly before
// latency-critical on thermally eroded nodes; and (3) grant failover
// PR loads ahead of the elective scale-out queue — preemption provable
// from the budget's grant log alone.

// Co-resident service roles (chaosApp — layer4-lb — is the third).
const (
	coresBulkApp = "retrieval"
	coresSecApp  = "sec-gateway"
)

// coresScaleOutFor sizes the elective scale-out fired at storm start:
// enough to fill the budget and leave a visible queue for failovers to
// preempt.
func coresScaleOutFor(budget int) int { return 2*budget + 4 }

// CoResOptions shapes the fleet8 drill.
type CoResOptions struct {
	// Devices is the shared fleet size (the tentpole configuration
	// is 120: large enough for the storm's rack event, small enough
	// for CI).
	Devices int
	// Budget is the concurrent PR-load cap.
	Budget int
	// Seed drives the storm schedule, traffic and router sampling.
	Seed int64
	// Trace, when set, records the drill into a trace process.
	Trace *obs.Recorder
}

// DefaultCoResOptions returns the tentpole co-residency configuration.
func DefaultCoResOptions() CoResOptions {
	return CoResOptions{Devices: 120, Budget: 6, Seed: 11}
}

// CoResServiceResult is one service's storm outcome.
type CoResServiceResult struct {
	Name  string
	Class ServiceClass
	// SLOAvailability is the registered target; Availability the
	// measured healthy-served/sent over the storm.
	SLOAvailability float64
	Availability    float64
	Sent, Served    int64
	Dropped, Shed   int64
	// P50/P99 are per-packet transit latencies over the whole storm
	// (window histograms merged exactly).
	P50, P99 sim.Time
}

// CoResWindowService is one service's slice of a measurement window.
type CoResWindowService struct {
	Name         string
	Sent, Served int64
	Shed         int64
	Availability float64
}

// CoResWindow is one measurement window of the drill.
type CoResWindow struct {
	At       sim.Time
	Services []CoResWindowService
	// Healthy/Degraded/Down count nodes at the window's end;
	// BulkShedNodes counts nodes inside the bulk-shed band.
	Healthy, Degraded, Down int
	BulkShedNodes           int
	LoadsInflight           int
	ElectivesQueued         int
}

// ShedObservation is one (window, node) proof point for the shedding
// order: the node sat inside the bulk-shed band across the whole
// window (banded at both edges, sub-alarm throughout) while the fleet
// offered bulk traffic. LCServed/BulkServed are the node's per-class
// serve deltas over the window — the order holds when BulkServed is 0
// (the hard exclusion) while latency-critical traffic stays eligible:
// lc is only soft-penalized on the band, so it keeps flowing fleet-wide
// (LCShed stays 0) and still lands on the banded node itself whenever
// its rack peers are loaded enough (LCServed > 0 in some windows).
type ShedObservation struct {
	Window     int
	Node       string
	TempMilliC uint32
	LCServed   int64
	BulkServed int64
}

// PreemptionPair is one grant-log proof of priority inversion avoided:
// the elective was requested first, yet the failover started first.
type PreemptionPair struct {
	ElectiveNode  string
	ElectiveReqAt sim.Time
	ElectiveStart sim.Time
	FailoverNode  string
	FailoverReqAt sim.Time
	FailoverStart sim.Time
}

// CoResResult is the fleet8 report.
type CoResResult struct {
	Devices  int
	RackSize int
	Seed     int64
	Budget   int
	ScaleOut int

	StormStart, StormEnd sim.Time
	Injections           []string

	// FleetAvailability is the aggregate healthy-served/sent over the
	// storm — the PR 4-style fleet-wide number the per-service columns
	// decompose.
	FleetAvailability     float64
	Sent, Served, Dropped int64

	Services []CoResServiceResult

	// Shedding-order evidence: every fully-banded (window, node)
	// observation, plus how many of them proved the order (zero bulk
	// served on the banded node) and how many violated it (bulk served
	// there anyway).
	ShedObservations    []ShedObservation
	ShedOrderProofs     int
	ShedOrderViolations int
	// LCShed is the latency-critical services' total class-shed drops —
	// zero by construction of the shedding order.
	LCShed int64

	// Preemption evidence from the budget grant log.
	ElectivesRequested  int
	ElectivesCompleted  int
	ElectivesUnplaced   int
	LoadsPreempted      int
	PeakConcurrentLoads int
	PreemptionPairs     []PreemptionPair

	Failovers int

	Windows []CoResWindow

	// Metrics is the end-of-storm registry snapshot (per-service series
	// included); Registry the live registry for Prometheus export.
	Metrics  map[string]float64
	Registry *obs.Registry
}

// coresTraffics derives one window's deterministic per-service traffic.
// Each service gets its own seed stream (offsets keep the packet and
// arrival streams disjoint across services) and a distinct shape: the
// LB carries the bulk of the offered load, retrieval a heavy bulk
// stream, the gateway a light small-packet stream.
func coresTraffics(seed int64, window int) []Traffic {
	base := seed*1_000_003 + int64(window+1)*1000
	return []Traffic{
		{Service: chaosApp, OfferedGbps: 200, PktBytes: 1024, Flows: 2048, Jitter: 0.2, Seed: base},
		{Service: coresBulkApp, OfferedGbps: 150, PktBytes: 1024, Flows: 1024, Jitter: 0.2, Seed: base + 101},
		{Service: coresSecApp, OfferedGbps: 50, PktBytes: 512, Flows: 512, Jitter: 0.2, Seed: base + 211},
	}
}

// coresServices builds the drill's service set against one fleet size.
func coresServices(devices int) ([]Service, error) {
	lbInfo, err := apps.Lookup(chaosApp)
	if err != nil {
		return nil, err
	}
	bulkInfo, err := apps.Lookup(coresBulkApp)
	if err != nil {
		return nil, err
	}
	secInfo, err := apps.Lookup(coresSecApp)
	if err != nil {
		return nil, err
	}
	lb := AppService(lbInfo, devices, net.IPv4(20, 0, 0, 1))
	lb.Class = ClassLatencyCritical
	lb.SLO = SLO{Availability: 0.999}
	lb.Stateful = true
	lb.Backends = chaosBackends()
	bulk := AppService(bulkInfo, devices/2, net.IPv4(30, 0, 0, 1))
	bulk.Class = ClassBulk
	bulk.SLO = SLO{Availability: 0.90}
	sec := AppService(secInfo, devices/4, net.IPv4(40, 0, 0, 1))
	sec.Class = ClassLatencyCritical
	sec.SLO = SLO{Availability: 0.999}
	return []Service{lb, bulk, sec}, nil
}

// CoResidencyDrill runs the fleet8 experiment: one seeded storm against
// the co-resident fleet with every defense armed.
func CoResidencyDrill(opts CoResOptions) (*CoResResult, error) {
	if opts.Devices < 8 {
		return nil, fmt.Errorf("fleet: co-residency drill needs at least 8 devices, got %d", opts.Devices)
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("fleet: co-residency drill needs a positive budget, got %d", opts.Budget)
	}
	spec := faults.DefaultStorm(opts.Devices, opts.Seed)
	spec.Start = 2*DefaultConfig().ReconfigTime + chaosWarmup
	// fleet5's ramp climbs 6°C per half-window — it crosses the whole
	// bulk-shed band inside one measurement window, leaving no window
	// fully inside the band. Slow the ramp to one step every two
	// windows (and ramp more nodes, cooling after the full climb) so
	// band residency is observable at window granularity.
	spec.ThermalEvery = 2 * chaosWindowDur
	spec.ThermalCoolAt = 40 * chaosWindowDur
	spec.ThermalNodes = opts.Devices / 40
	if spec.ThermalNodes < 2 {
		spec.ThermalNodes = 2
	}
	sched, err := faults.Storm(spec)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		sched.Trace(opts.Trace.Process("storm-plan").Track("schedule"))
	}

	// The scale-plane configuration fleet5's budgeted-derived case
	// gates: gossip health, rack-first dispatch, per-probe snapshots,
	// derived shedding with the widened shed span (the class shedding
	// order needs the pre-alarm band to be observable across windows).
	cfg := DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.GossipHealth = true
	cfg.GossipFanout = 32
	cfg.GossipPiggyback = 8
	cfg.RackP2C = true
	cfg.SnapshotEvery = 1
	cfg.DerivedShedding = true
	cfg.ShedStartMilliC = cfg.DegradeMilliC - 40_000
	// Retrieval's role logic (180k LUT, 2048 DSP) outgrows the default
	// slot budget, so the co-resident fleet carves bigger slots — the
	// catalog's large chips still yield 2-3 per device.
	cfg.SlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}

	svcs, err := coresServices(opts.Devices)
	if err != nil {
		return nil, err
	}
	c, err := BuildCoResidentCluster(cfg, svcs, opts.Devices)
	if err != nil {
		return nil, err
	}
	if opts.Trace != nil {
		c.SetTrace(opts.Trace.Process("coresidency"))
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	if _, err := c.ServeMulti(chaosWarmup, coresTraffics(opts.Seed, -1)); err != nil {
		return nil, err
	}

	// Arm the budget (resets the grant history so warmup placements do
	// not contaminate the storm's log) and fire the elective scale-out:
	// the bulk service grows by more replicas than the budget admits at
	// once, so a queue forms for the storm's failovers to preempt.
	c.SetLoadBudget(opts.Budget)
	stormStart := c.Now()
	if stormStart != sched.Spec.Start {
		return nil, fmt.Errorf("fleet: storm scheduled for %v but warmup ended at %v",
			sched.Spec.Start, stormStart)
	}
	scaleOut := coresScaleOutFor(opts.Budget)
	bulkBase := c.services[coresBulkApp].Replicas
	if err := c.ScaleService(stormStart, coresBulkApp, scaleOut); err != nil {
		return nil, err
	}

	res := &CoResResult{
		Devices: opts.Devices, RackSize: spec.RackSize,
		Seed: opts.Seed, Budget: opts.Budget, ScaleOut: scaleOut,
		StormStart: spec.Start, StormEnd: sched.End(),
	}
	for _, inj := range sched.Injections {
		res.Injections = append(res.Injections, inj.String())
	}

	names := c.Services()
	pre := make(map[string]ServiceSnapshot, len(names))
	hists := make(map[string]*metrics.Histogram, len(names))
	for _, name := range names {
		pre[name] = c.ServiceStats(name)
		hists[name] = &metrics.Histogram{}
	}
	preFleet := c.RouterStats()
	nodes := c.Nodes()

	type nodeProbe struct {
		banded   bool
		lc, bulk int64
	}
	probes := make([]nodeProbe, len(nodes))

	injIdx := 0
	winStats := make(map[string]ServiceSnapshot, len(names))
	for w := 0; w < chaosWindows; w++ {
		winEnd := stormStart + sim.Time(w+1)*chaosWindowDur
		for injIdx < len(sched.Injections) && sched.Injections[injIdx].At < winEnd {
			if err := applyInjection(c, nodes, sched.Injections[injIdx]); err != nil {
				return nil, fmt.Errorf("fleet: injection %v: %w", sched.Injections[injIdx], err)
			}
			injIdx++
		}
		// Band membership and per-class serve counts at the window's
		// start — the same lastTemp the first dispatch views freeze.
		for i, n := range nodes {
			lc, bulk := n.ClassServed()
			probes[i] = nodeProbe{
				banded: n.State() == Healthy && c.shedsBulk(n.LastTemp()),
				lc:     lc, bulk: bulk,
			}
		}
		for _, name := range names {
			winStats[name] = c.ServiceStats(name)
		}
		if _, err := c.ServeMulti(chaosWindowDur, coresTraffics(opts.Seed, w)); err != nil {
			return nil, err
		}

		win := CoResWindow{At: c.Now(), ElectivesQueued: c.ElectivesQueued()}
		var bulkSentThisWindow int64
		for _, name := range names {
			before := winStats[name]
			after := c.ServiceStats(name)
			ws := CoResWindowService{
				Name:   name,
				Sent:   after.Sent - before.Sent,
				Served: after.Served - before.Served,
				Shed:   after.Shed - before.Shed,
			}
			ws.Availability = 1
			if ws.Sent > 0 {
				ws.Availability = float64(after.HealthyServed-before.HealthyServed) / float64(ws.Sent)
			}
			if c.services[name].Class == ClassBulk {
				bulkSentThisWindow += ws.Sent
			}
			win.Services = append(win.Services, ws)
			hists[name].Merge(c.ServiceWindowLatencies(name))
		}
		for i, n := range nodes {
			switch n.State() {
			case Healthy:
				win.Healthy++
				if c.shedsBulk(n.LastTemp()) {
					win.BulkShedNodes++
				}
			case Degraded:
				win.Degraded++
			default:
				win.Down++
			}
			// A node banded at both window edges (and sub-alarm at both —
			// the storm's ramps are monotonic inside a window) took the
			// whole window's dispatch decisions inside the band: its bulk
			// serve delta must be zero while latency-critical flows.
			if probes[i].banded && n.State() == Healthy && c.shedsBulk(n.LastTemp()) && bulkSentThisWindow > 0 {
				lc, bulk := n.ClassServed()
				ob := ShedObservation{
					Window: w, Node: n.ID, TempMilliC: n.LastTemp(),
					LCServed: lc - probes[i].lc, BulkServed: bulk - probes[i].bulk,
				}
				res.ShedObservations = append(res.ShedObservations, ob)
				if ob.BulkServed > 0 {
					res.ShedOrderViolations++
				} else {
					res.ShedOrderProofs++
				}
			}
		}
		// Budget occupancy at the window edge, from the live heap.
		c.budget.prune(c.Now())
		win.LoadsInflight = len(c.budget.inflight)
		res.Windows = append(res.Windows, win)
	}

	postFleet := c.RouterStats()
	res.Sent = postFleet.Sent - preFleet.Sent
	res.Served = postFleet.Served - preFleet.Served
	res.Dropped = postFleet.Dropped - preFleet.Dropped
	if res.Sent > 0 {
		res.FleetAvailability = float64(postFleet.HealthyServed-preFleet.HealthyServed) / float64(res.Sent)
	}
	for _, name := range names {
		svc := c.services[name]
		before := pre[name]
		after := c.ServiceStats(name)
		sr := CoResServiceResult{
			Name: name, Class: svc.Class, SLOAvailability: svc.SLO.Availability,
			Sent:    after.Sent - before.Sent,
			Served:  after.Served - before.Served,
			Dropped: after.Dropped - before.Dropped,
			Shed:    after.Shed - before.Shed,
			P50:     hists[name].Percentile(50),
			P99:     hists[name].Percentile(99),
		}
		if sr.Sent > 0 {
			sr.Availability = float64(after.HealthyServed-before.HealthyServed) / float64(sr.Sent)
		}
		if svc.Class == ClassLatencyCritical {
			res.LCShed += sr.Shed
		}
		res.Services = append(res.Services, sr)
	}

	// Preemption evidence: every (elective, failover) grant pair where
	// the elective asked first but the failover started first.
	events := c.LoadEvents()
	for _, f := range events {
		if f.Class != LoadFailover {
			continue
		}
		for _, e := range events {
			if e.Class != LoadElective || e.ReqAt >= f.ReqAt || f.Start >= e.Start {
				continue
			}
			res.PreemptionPairs = append(res.PreemptionPairs, PreemptionPair{
				ElectiveNode: e.Node, ElectiveReqAt: e.ReqAt, ElectiveStart: e.Start,
				FailoverNode: f.Node, FailoverReqAt: f.ReqAt, FailoverStart: f.Start,
			})
			if len(res.PreemptionPairs) >= 16 {
				break
			}
		}
		if len(res.PreemptionPairs) >= 16 {
			break
		}
	}
	res.LoadsPreempted = c.LoadsPreempted()
	res.PeakConcurrentLoads = c.LoadBudgetPeak()
	res.ElectivesRequested = scaleOut
	for _, r := range c.Replicas() {
		if r.Service != coresBulkApp || r.Index < bulkBase {
			continue
		}
		if r.Node != "" {
			res.ElectivesCompleted++
		} else {
			res.ElectivesUnplaced++
		}
	}
	for _, f := range c.Failovers() {
		if f.DetectedAt >= stormStart {
			res.Failovers++
		}
	}
	res.Registry = c.Metrics()
	res.Metrics = res.Registry.Values()
	return res, nil
}
