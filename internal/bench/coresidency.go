package bench

import (
	"fmt"

	"harmonia/internal/fleet"
)

// fleet8 — multi-service co-residency under the storm. Three services
// with distinct demand sets and classes share one fleet: the stateful
// layer-4 LB and the security gateway latency-critical, retrieval
// bulk. The fleet5 storm replays once against the co-resident fleet
// with every defense armed, and the report decomposes the fleet-wide
// outcome per service. The gates assert the SLO machinery end to end:
// latency-critical availability dominates bulk and the fleet-wide
// aggregate and clears each service's SLO; thermally eroded nodes shed
// bulk strictly before latency-critical; and failover PR loads preempt
// the elective scale-out queue, provably from the budget grant log.

// CoResServicePoint is one service's storm outcome flattened for the
// report.
type CoResServicePoint struct {
	Name            string  `json:"name"`
	Class           string  `json:"class"`
	SLOAvailability float64 `json:"slo_availability"`
	Availability    float64 `json:"availability"`
	Sent            int64   `json:"sent"`
	Served          int64   `json:"served"`
	Dropped         int64   `json:"dropped"`
	Shed            int64   `json:"shed"`
	P50Ps           int64   `json:"p50_ps"`
	P99Ps           int64   `json:"p99_ps"`
}

// CoResWindowPoint is one measurement window flattened for the report.
type CoResWindowPoint struct {
	AtPs            int64                 `json:"at_ps"`
	Healthy         int                   `json:"healthy"`
	Degraded        int                   `json:"degraded"`
	Down            int                   `json:"down"`
	BulkShedNodes   int                   `json:"bulk_shed_nodes"`
	LoadsInflight   int                   `json:"loads_inflight"`
	ElectivesQueued int                   `json:"electives_queued"`
	Services        []CoResWindowSvcPoint `json:"services"`
}

// CoResWindowSvcPoint is one service's slice of a window.
type CoResWindowSvcPoint struct {
	Name         string  `json:"name"`
	Sent         int64   `json:"sent"`
	Served       int64   `json:"served"`
	Shed         int64   `json:"shed"`
	Availability float64 `json:"availability"`
}

// CoResShedPoint is one shedding-order proof point: a node fully
// inside the bulk-shed band for a window, with its per-class serve
// deltas.
type CoResShedPoint struct {
	Window     int    `json:"window"`
	Node       string `json:"node"`
	TempMilliC uint32 `json:"temp_milli_c"`
	LCServed   int64  `json:"lc_served"`
	BulkServed int64  `json:"bulk_served"`
}

// CoResPreemptionPoint is one grant-log preemption proof: the elective
// asked first, the failover started first.
type CoResPreemptionPoint struct {
	ElectiveNode    string `json:"elective_node"`
	ElectiveReqPs   int64  `json:"elective_req_ps"`
	ElectiveStartPs int64  `json:"elective_start_ps"`
	FailoverNode    string `json:"failover_node"`
	FailoverReqPs   int64  `json:"failover_req_ps"`
	FailoverStartPs int64  `json:"failover_start_ps"`
}

// CoResReport is the machine-readable fleet8 artifact
// (BENCH_coresidency.json).
type CoResReport struct {
	Experiment string `json:"experiment"` // always "fleet8"
	Devices    int    `json:"devices"`
	RackSize   int    `json:"rack_size"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`
	ScaleOut   int    `json:"scale_out"`

	StormStartPs int64    `json:"storm_start_ps"`
	StormEndPs   int64    `json:"storm_end_ps"`
	Injections   []string `json:"injections"`

	FleetAvailability float64 `json:"fleet_availability"`
	Sent              int64   `json:"sent"`
	Served            int64   `json:"served"`
	Dropped           int64   `json:"dropped"`

	Services []CoResServicePoint `json:"services"`

	ShedObservations    []CoResShedPoint `json:"shed_observations"`
	ShedOrderProofs     int              `json:"shed_order_proofs"`
	ShedOrderViolations int              `json:"shed_order_violations"`
	LCShed              int64            `json:"lc_shed"`

	ElectivesRequested  int                    `json:"electives_requested"`
	ElectivesCompleted  int                    `json:"electives_completed"`
	ElectivesUnplaced   int                    `json:"electives_unplaced"`
	LoadsPreempted      int                    `json:"loads_preempted"`
	PeakConcurrentLoads int                    `json:"peak_concurrent_loads"`
	PreemptionPairs     []CoResPreemptionPoint `json:"preemption_pairs"`

	Failovers int `json:"failovers"`

	Windows []CoResWindowPoint `json:"windows"`

	// Metrics is the cluster's full registry snapshot (per-service
	// series included) so the artifact is self-contained.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// The acceptance gates, pre-evaluated so CI can assert on the
	// artifact without re-deriving them:
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

// FleetCoResReport runs the fleet8 drill and evaluates its gates.
func FleetCoResReport(opts fleet.CoResOptions) (*CoResReport, *fleet.CoResResult, error) {
	d, err := fleet.CoResidencyDrill(opts)
	if err != nil {
		return nil, nil, err
	}
	rep := &CoResReport{
		Experiment:        "fleet8",
		Devices:           d.Devices,
		RackSize:          d.RackSize,
		Seed:              d.Seed,
		Budget:            d.Budget,
		ScaleOut:          d.ScaleOut,
		StormStartPs:      int64(d.StormStart),
		StormEndPs:        int64(d.StormEnd),
		Injections:        d.Injections,
		FleetAvailability: d.FleetAvailability,
		Sent:              d.Sent,
		Served:            d.Served,
		Dropped:           d.Dropped,

		ShedOrderProofs:     d.ShedOrderProofs,
		ShedOrderViolations: d.ShedOrderViolations,
		LCShed:              d.LCShed,

		ElectivesRequested:  d.ElectivesRequested,
		ElectivesCompleted:  d.ElectivesCompleted,
		ElectivesUnplaced:   d.ElectivesUnplaced,
		LoadsPreempted:      d.LoadsPreempted,
		PeakConcurrentLoads: d.PeakConcurrentLoads,
		Failovers:           d.Failovers,
		Metrics:             d.Metrics,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario coresidency -devices %d -seed %d -budget %d",
			d.Devices, d.Seed, d.Budget),
	}
	var bulkAvail float64 = 1
	for _, s := range d.Services {
		rep.Services = append(rep.Services, CoResServicePoint{
			Name: s.Name, Class: string(s.Class),
			SLOAvailability: s.SLOAvailability, Availability: s.Availability,
			Sent: s.Sent, Served: s.Served, Dropped: s.Dropped, Shed: s.Shed,
			P50Ps: int64(s.P50), P99Ps: int64(s.P99),
		})
		if s.Class == fleet.ClassBulk && s.Availability < bulkAvail {
			bulkAvail = s.Availability
		}
	}
	rep.SLOOrderHeld = true
	for _, s := range d.Services {
		if s.Class != fleet.ClassLatencyCritical {
			continue
		}
		if s.Availability < s.SLOAvailability ||
			s.Availability < bulkAvail ||
			s.Availability < d.FleetAvailability {
			rep.SLOOrderHeld = false
		}
	}
	for _, ob := range d.ShedObservations {
		rep.ShedObservations = append(rep.ShedObservations, CoResShedPoint{
			Window: ob.Window, Node: ob.Node, TempMilliC: ob.TempMilliC,
			LCServed: ob.LCServed, BulkServed: ob.BulkServed,
		})
	}
	rep.ShedOrderHeld = d.ShedOrderProofs >= 1 && d.ShedOrderViolations == 0 && d.LCShed == 0
	for _, p := range d.PreemptionPairs {
		rep.PreemptionPairs = append(rep.PreemptionPairs, CoResPreemptionPoint{
			ElectiveNode: p.ElectiveNode, ElectiveReqPs: int64(p.ElectiveReqAt),
			ElectiveStartPs: int64(p.ElectiveStart),
			FailoverNode:    p.FailoverNode, FailoverReqPs: int64(p.FailoverReqAt),
			FailoverStartPs: int64(p.FailoverStart),
		})
	}
	rep.FailoverPreempts = d.LoadsPreempted >= 1 && len(d.PreemptionPairs) >= 1 &&
		d.PeakConcurrentLoads <= d.Budget
	for _, w := range d.Windows {
		wp := CoResWindowPoint{
			AtPs: int64(w.At), Healthy: w.Healthy, Degraded: w.Degraded, Down: w.Down,
			BulkShedNodes: w.BulkShedNodes, LoadsInflight: w.LoadsInflight,
			ElectivesQueued: w.ElectivesQueued,
		}
		for _, s := range w.Services {
			wp.Services = append(wp.Services, CoResWindowSvcPoint{
				Name: s.Name, Sent: s.Sent, Served: s.Served, Shed: s.Shed,
				Availability: s.Availability,
			})
		}
		rep.Windows = append(rep.Windows, wp)
	}
	return rep, d, nil
}

// Gates reports whether every fleet8 acceptance gate held.
func (r *CoResReport) Gates() bool {
	return r.SLOOrderHeld && r.ShedOrderHeld && r.FailoverPreempts
}
