package fleet

import (
	"harmonia/internal/apps"
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

// CoResServiceResult is one service's storm outcome.
type CoResServiceResult struct {
	Name  string       `json:"name"`
	Class ServiceClass `json:"class"`
	// SLOAvailability is the registered target; Availability the
	// measured healthy-served/sent over the storm.
	SLOAvailability float64 `json:"slo_availability"`
	Availability    float64 `json:"availability"`
	Sent            int64   `json:"sent"`
	Served          int64   `json:"served"`
	Dropped         int64   `json:"dropped"`
	Shed            int64   `json:"shed"`
	// P50/P99 are per-packet transit latencies over the whole storm
	// (window histograms merged exactly).
	P50 sim.Time `json:"p50_ps"`
	P99 sim.Time `json:"p99_ps"`
}

// CoResWindowService is one service's slice of a measurement window.
type CoResWindowService struct {
	Name         string  `json:"name"`
	Sent         int64   `json:"sent"`
	Served       int64   `json:"served"`
	Shed         int64   `json:"shed"`
	Availability float64 `json:"availability"`
}

// CoResWindow is one measurement window of the drill.
type CoResWindow struct {
	At sim.Time `json:"at_ps"`
	// Healthy/Degraded/Down count nodes at the window's end;
	// BulkShedNodes counts nodes inside the bulk-shed band.
	Healthy         int                  `json:"healthy"`
	Degraded        int                  `json:"degraded"`
	Down            int                  `json:"down"`
	BulkShedNodes   int                  `json:"bulk_shed_nodes"`
	LoadsInflight   int                  `json:"loads_inflight"`
	ElectivesQueued int                  `json:"electives_queued"`
	Services        []CoResWindowService `json:"services"`
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
	Window     int    `json:"window"`
	Node       string `json:"node"`
	TempMilliC uint32 `json:"temp_milli_c"`
	LCServed   int64  `json:"lc_served"`
	BulkServed int64  `json:"bulk_served"`
}

// PreemptionPair is one grant-log proof of priority inversion avoided:
// the elective was requested first, yet the failover started first.
type PreemptionPair struct {
	ElectiveNode  string   `json:"elective_node"`
	ElectiveReqAt sim.Time `json:"elective_req_ps"`
	ElectiveStart sim.Time `json:"elective_start_ps"`
	FailoverNode  string   `json:"failover_node"`
	FailoverReqAt sim.Time `json:"failover_req_ps"`
	FailoverStart sim.Time `json:"failover_start_ps"`
}

// CoResResult is the fleet8 report and the machine-readable artifact
// (BENCH_coresidency.json), gates and repro line included.
type CoResResult struct {
	Experiment string `json:"experiment"` // always "fleet8"

	Devices  int   `json:"devices"`
	RackSize int   `json:"rack_size"`
	Seed     int64 `json:"seed"`
	Budget   int   `json:"budget"`
	ScaleOut int   `json:"scale_out"`

	StormStart sim.Time `json:"storm_start_ps"`
	StormEnd   sim.Time `json:"storm_end_ps"`
	Injections []string `json:"injections"`

	// FleetAvailability is the aggregate healthy-served/sent over the
	// storm — the PR 4-style fleet-wide number the per-service columns
	// decompose.
	FleetAvailability float64 `json:"fleet_availability"`
	Sent              int64   `json:"sent"`
	Served            int64   `json:"served"`
	Dropped           int64   `json:"dropped"`

	Services []CoResServiceResult `json:"services"`

	// Shedding-order evidence: every fully-banded (window, node)
	// observation, plus how many of them proved the order (zero bulk
	// served on the banded node) and how many violated it (bulk served
	// there anyway).
	ShedObservations    []ShedObservation `json:"shed_observations"`
	ShedOrderProofs     int               `json:"shed_order_proofs"`
	ShedOrderViolations int               `json:"shed_order_violations"`
	// LCShed is the latency-critical services' total class-shed drops —
	// zero by construction of the shedding order.
	LCShed int64 `json:"lc_shed"`

	// Preemption evidence from the budget grant log.
	ElectivesRequested  int              `json:"electives_requested"`
	ElectivesCompleted  int              `json:"electives_completed"`
	ElectivesUnplaced   int              `json:"electives_unplaced"`
	LoadsPreempted      int              `json:"loads_preempted"`
	PeakConcurrentLoads int              `json:"peak_concurrent_loads"`
	PreemptionPairs     []PreemptionPair `json:"preemption_pairs"`

	Failovers int `json:"failovers"`

	Windows []CoResWindow `json:"windows"`

	// Metrics is the end-of-storm registry snapshot (per-service series
	// included) so the artifact is self-contained; Registry the live
	// registry for Prometheus export.
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Registry *obs.Registry      `json:"-"`

	// The acceptance gates:
	//   - SLOOrderHeld: every latency-critical service's availability
	//     cleared its SLO, the bulk service's, and the fleet-wide
	//     aggregate;
	//   - ShedOrderHeld: at least one fully-banded window-node
	//     observation, zero banded nodes serving bulk, and zero
	//     latency-critical packets shed anywhere;
	//   - FailoverPreempts: at least one failover PR load provably
	//     started ahead of an earlier-requested elective, with the
	//     concurrent-load cap intact.
	SLOOrderHeld     bool `json:"slo_order_held"`
	ShedOrderHeld    bool `json:"shed_order_held"`
	FailoverPreempts bool `json:"failover_preempts"`

	// Repro rebuilds this exact report from the seed.
	Repro string `json:"repro"`
}

// Failures names every fleet8 gate that did not hold.
func (r *CoResResult) Failures() []string {
	return failedGates(
		gate{"slo_order_held", r.SLOOrderHeld},
		gate{"shed_order_held", r.ShedOrderHeld},
		gate{"failover_preempts", r.FailoverPreempts},
	)
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
func CoResidencyDrill(opts DrillOptions) (*CoResResult, error) {
	if err := opts.check("co-residency", 8); err != nil {
		return nil, err
	}
	sched, err := stormPlan(opts, true)
	if err != nil {
		return nil, err
	}

	// The scale-plane configuration fleet5's budgeted-derived case
	// gates, on the co-resident fleet's bigger slots.
	cfg := stormConfig(opts.Seed, true)
	cfg.SlotRes = coresSlotRes
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
	st, err := startStorm(c, sched, opts.Budget, func(w int) []Traffic { return coresTraffics(opts.Seed, w) })
	if err != nil {
		return nil, err
	}

	// Fire the elective scale-out: the bulk service grows by more
	// replicas than the budget admits at once, so a queue forms for the
	// storm's failovers to preempt.
	scaleOut := coresScaleOutFor(opts.Budget)
	bulkBase := c.services[coresBulkApp].Replicas
	if err := c.ScaleService(st.start, coresBulkApp, scaleOut); err != nil {
		return nil, err
	}

	res := &CoResResult{
		Experiment: "fleet8",
		Devices:    opts.Devices, RackSize: sched.Spec.RackSize,
		Seed: opts.Seed, Budget: opts.Budget, ScaleOut: scaleOut,
		StormStart: sched.Spec.Start, StormEnd: sched.End(),
		Injections: injections(sched),
	}

	names := c.Services()
	pre := make(map[string]ServiceSnapshot, len(names))
	hists := make(map[string]*metrics.Histogram, len(names))
	for _, name := range names {
		pre[name] = c.ServiceStats(name)
		hists[name] = &metrics.Histogram{}
	}
	preFleet := c.RouterStats()
	nodes := st.nodes

	type nodeProbe struct {
		banded   bool
		lc, bulk int64
	}
	probes := make([]nodeProbe, len(nodes))

	winStats := make(map[string]ServiceSnapshot, len(names))
	for w := 0; w < stormWindows; w++ {
		if err := st.inject(w); err != nil {
			return nil, err
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
		if _, err := st.serve(w); err != nil {
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

	// Preemption evidence from the grant log.
	res.PreemptionPairs = preemptionPairs(c.LoadEvents())
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
		if f.DetectedAt >= st.start {
			res.Failovers++
		}
	}
	res.Registry = c.Metrics()
	res.Metrics = res.Registry.Values()

	bulkAvail := 1.0
	for _, s := range res.Services {
		if s.Class == ClassBulk && s.Availability < bulkAvail {
			bulkAvail = s.Availability
		}
	}
	res.SLOOrderHeld = true
	for _, s := range res.Services {
		if s.Class == ClassLatencyCritical && (s.Availability < s.SLOAvailability ||
			s.Availability < bulkAvail || s.Availability < res.FleetAvailability) {
			res.SLOOrderHeld = false
		}
	}
	res.ShedOrderHeld = res.ShedOrderProofs >= 1 && res.ShedOrderViolations == 0 && res.LCShed == 0
	res.FailoverPreempts = res.LoadsPreempted >= 1 && len(res.PreemptionPairs) >= 1 &&
		res.PeakConcurrentLoads <= res.Budget
	res.Repro = stormRepro("coresidency", opts)
	return res, nil
}
