package fleet

import (
	"harmonia/internal/metrics"
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

// CoResidencyDrill runs the fleet8 experiment: one seeded storm against
// the co-resident fleet with every defense armed.
func CoResidencyDrill(opts DrillOptions) (*CoResResult, error) {
	wl, sched, err := opts.storm("co-residency", 8, CoResidencyWorkload)
	if err != nil {
		return nil, err
	}
	run, err := startTraced(&wl, opts.Trace, "coresidency", nil)
	if err != nil {
		return nil, err
	}
	// Start fired the elective scale-out: the bulk service's last
	// scaleOut replicas.
	c, scaleOut := run.Cluster, coresScaleOutFor(opts.Budget)
	bulkBase := c.services[coresBulkApp].Replicas - scaleOut

	res := &CoResResult{
		Experiment: "fleet8",
		Devices:    opts.Devices, RackSize: sched.Spec.RackSize,
		Seed: opts.Seed, Budget: opts.Budget, ScaleOut: scaleOut,
		StormStart: sched.Spec.Start, StormEnd: sched.End(),
		Injections: injections(sched),
	}

	names := c.Services()
	hists := make([]metrics.Histogram, len(names))
	storm := newServiceDeltas(c)
	nodes := c.Nodes()

	type nodeProbe struct {
		banded   bool
		lc, bulk int64
	}
	probes := make([]nodeProbe, len(nodes))

	for w := 0; w < wl.Windows; w++ {
		if err := run.Script(w); err != nil {
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
		_, deltas, err := run.Serve(w)
		if err != nil {
			return nil, err
		}

		win := CoResWindow{At: c.Now(), ElectivesQueued: c.ElectivesQueued()}
		var bulkSentThisWindow int64
		for i, name := range names {
			d := deltas[i]
			ws := CoResWindowService{
				Name: name, Sent: d.Sent, Served: d.Served, Shed: d.Shed,
				Availability: ratio(d.HealthyServed, d.Sent, 1),
			}
			if c.services[name].Class == ClassBulk {
				bulkSentThisWindow += ws.Sent
			}
			win.Services = append(win.Services, ws)
			hists[i].Merge(c.ServiceWindowLatencies(name))
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

	var healthy int64 // the fleet's, summed over its services
	for i, d := range storm.step() {
		res.Sent, res.Served, res.Dropped = res.Sent+d.Sent, res.Served+d.Served, res.Dropped+d.Dropped
		healthy += d.HealthyServed
		name := names[i]
		svc := c.services[name]
		sr := CoResServiceResult{
			Name: name, Class: svc.Class, SLOAvailability: svc.SLO.Availability,
			Availability: ratio(d.HealthyServed, d.Sent, 0),
			Sent:         d.Sent, Served: d.Served, Dropped: d.Dropped, Shed: d.Shed,
			P50: hists[i].Percentile(50),
			P99: hists[i].Percentile(99),
		}
		if svc.Class == ClassLatencyCritical {
			res.LCShed += sr.Shed
		}
		res.Services = append(res.Services, sr)
	}
	res.FleetAvailability = ratio(healthy, res.Sent, 0)

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
		if f.DetectedAt >= run.Start {
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
