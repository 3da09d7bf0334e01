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

// CoResReport is the machine-readable fleet8 artifact
// (BENCH_coresidency.json).
type CoResReport struct {
	Experiment string `json:"experiment"` // always "fleet8"

	// The drill result is the artifact's body: the storm, the
	// per-service outcomes, the shedding and preemption evidence and
	// every window, laid out by its own JSON tags.
	*fleet.CoResResult

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
func FleetCoResReport(opts fleet.DrillOptions) (*CoResReport, error) {
	d, err := fleet.CoResidencyDrill(opts)
	if err != nil {
		return nil, err
	}
	rep := &CoResReport{
		Experiment:  "fleet8",
		CoResResult: d,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario coresidency -devices %d -seed %d -budget %d",
			d.Devices, d.Seed, d.Budget),
	}
	var bulkAvail float64 = 1
	for _, s := range d.Services {
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
	rep.ShedOrderHeld = d.ShedOrderProofs >= 1 && d.ShedOrderViolations == 0 && d.LCShed == 0
	rep.FailoverPreempts = d.LoadsPreempted >= 1 && len(d.PreemptionPairs) >= 1 &&
		d.PeakConcurrentLoads <= d.Budget
	return rep, nil
}

// Gates reports whether every fleet8 acceptance gate held.
func (r *CoResReport) Gates() bool {
	return r.SLOOrderHeld && r.ShedOrderHeld && r.FailoverPreempts
}
