package bench

import (
	"fmt"

	"harmonia/internal/fleet"
)

// fleet5 — failure-storm survival. One seeded injection schedule
// (rack power loss, link-flap bursts, PR bitstream load failures,
// a thermal runaway ramp, command-packet corruption, a backend drain)
// replays against three fleets: unbudgeted with the static degraded
// penalty, budgeted with the static penalty, and budgeted with
// thermal-derived shedding. The report carries the acceptance gates
// pre-evaluated — the budget cap held, the unbudgeted fleet exceeded
// it, and derived shedding kept packets off alarmed nodes — plus the
// one-command repro line CI prints when a gate fails.

// ChaosReport is the machine-readable fleet5 artifact
// (BENCH_chaos.json).
type ChaosReport struct {
	Experiment string `json:"experiment"` // always "fleet5"
	App        string `json:"app"`

	// The drill result is the artifact's body: the storm and every
	// case, laid out by its own JSON tags.
	*fleet.ChaosResult

	// The acceptance gates, pre-evaluated so CI can assert on the
	// artifact without re-deriving them:
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

// FleetChaosReport runs the fleet5 drill and evaluates its gates.
func FleetChaosReport(opts fleet.DrillOptions) (*ChaosReport, error) {
	d, err := fleet.ChaosDrill(opts)
	if err != nil {
		return nil, err
	}
	rep := &ChaosReport{
		Experiment:  "fleet5",
		App:         cpApp,
		ChaosResult: d,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario chaos -devices %d -seed %d -budget %d",
			d.Devices, d.Seed, d.Budget),
	}
	rep.BudgetBounded = true
	for _, c := range d.Cases {
		switch {
		case c.Budgeted && c.PeakConcurrentLoads > c.Budget:
			rep.BudgetBounded = false
		case !c.Budgeted && c.PeakConcurrentLoads > d.Budget:
			rep.UnbudgetedExceeds = true
		}
		if c.DerivedShedding {
			rep.NoTrafficAfterAlarm = c.AlarmedNodePackets == 0
		}
	}
	return rep, nil
}

// Gates reports whether every fleet5 acceptance gate held.
func (r *ChaosReport) Gates() bool {
	return r.BudgetBounded && r.UnbudgetedExceeds && r.NoTrafficAfterAlarm
}
