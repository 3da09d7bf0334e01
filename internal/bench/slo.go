package bench

import (
	"fmt"

	"harmonia/internal/fleet"
	"harmonia/internal/obs"
)

// fleet10 — SLO error budgets, burn-rate alerting and causal
// postmortems under the storm. The fleet5 failure storm replays over
// the fleet8 co-resident fleet with the SLO engine armed: rolling
// error-budget windows advance at heartbeat barriers, multi-window
// burn-rate rules drive pending/firing/resolved alert transitions,
// and every firing is correlated against the ground-truth fault
// schedule plus the fleet's own event log. The gates assert the
// observability layer end to end: the storm fires latency-critical
// burn alerts and every firing is attributed to a scheduled fault, a
// fault-free control replay stays silent, every alert resolves inside
// the measured recovery bound, and the alert log plus final burn
// state are byte-identical across batch quanta and worker counts.

// SLOCausePoint is one ranked attribution inside a postmortem.
type SLOCausePoint struct {
	Kind      string `json:"kind"`
	Count     int    `json:"count"`
	Scheduled bool   `json:"scheduled"`
	FirstPs   int64  `json:"first_ps"`
	LastPs    int64  `json:"last_ps"`
	Example   string `json:"example"`
}

// SLOPostmortemPoint is one firing's causal attribution.
type SLOPostmortemPoint struct {
	Service       string          `json:"service"`
	Severity      string          `json:"severity"`
	FiringAtPs    int64           `json:"firing_at_ps"`
	WindowStartPs int64           `json:"window_start_ps"`
	WindowEndPs   int64           `json:"window_end_ps"`
	Attributed    bool            `json:"attributed"`
	Causes        []SLOCausePoint `json:"causes"`
}

// SLOReport is the machine-readable fleet10 artifact (BENCH_slo.json).
type SLOReport struct {
	Experiment string `json:"experiment"` // always "fleet10"
	Devices    int    `json:"devices"`
	RackSize   int    `json:"rack_size"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`

	StormStartPs int64    `json:"storm_start_ps"`
	StormEndPs   int64    `json:"storm_end_ps"`
	Injections   []string `json:"injections"`

	// Windows are the rolling error-budget windows ("2t" = 2 heartbeat
	// ticks), Rules the burn-rate alert rules derived per service.
	Windows []string `json:"windows"`
	Rules   []string `json:"rules"`

	Services []fleet.SLOServiceResult `json:"services"`

	Alerts   []obs.AlertEvent `json:"alerts"`
	AlertLog string           `json:"alert_log"`

	LookbackPs  int64                `json:"lookback_ps"`
	Postmortems []SLOPostmortemPoint `json:"postmortems"`
	Timeline    string               `json:"timeline"`

	FiringsTotal        int `json:"firings_total"`
	FiringsLC           int `json:"firings_lc"`
	UnattributedFirings int `json:"unattributed_firings"`
	ControlFirings      int `json:"control_firings"`
	ControlAttributions int `json:"control_attributions"`

	AllResolved      bool  `json:"all_resolved"`
	LastResolvedAtPs int64 `json:"last_resolved_at_ps"`
	RecoveryBoundPs  int64 `json:"recovery_bound_ps"`

	SweepVariants []string `json:"sweep_variants"`

	Samples []fleet.SLOWindowSample `json:"samples"`

	// Metrics is the baseline case's full registry snapshot so the
	// artifact is self-contained.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// The acceptance gates, pre-evaluated so CI can assert on the
	// artifact without re-deriving them:
	//   - AlertsAttributed: the storm fired at least one
	//     latency-critical burn alert, every firing carries at least
	//     one scheduled-fault attribution, and the fault-free control
	//     produced zero firings and zero attributions;
	//   - AlertsResolved: no alert was still pending or firing at
	//     drill end and the last resolution landed inside the
	//     measured recovery bound;
	//   - Deterministic: the alert log and final burn state were
	//     byte-identical across every (batch quantum, worker count)
	//     sweep variant.
	AlertsAttributed bool `json:"alerts_attributed"`
	AlertsResolved   bool `json:"alerts_resolved"`
	Deterministic    bool `json:"deterministic"`

	// Repro rebuilds this exact report from the seed.
	Repro string `json:"repro"`
}

// FleetSLOReport runs the fleet10 drill and evaluates its gates.
func FleetSLOReport(opts fleet.DrillOptions) (*SLOReport, *fleet.SLOResult, error) {
	d, err := fleet.SLODrill(opts)
	if err != nil {
		return nil, nil, err
	}
	rep := &SLOReport{
		Experiment:   "fleet10",
		Devices:      d.Devices,
		RackSize:     d.RackSize,
		Seed:         d.Seed,
		Budget:       d.Budget,
		StormStartPs: int64(d.StormStart),
		StormEndPs:   int64(d.StormEnd),
		Injections:   d.Injections,
		Services:     d.Services,
		Alerts:       d.Alerts,
		AlertLog:     d.AlertLog,
		LookbackPs:   int64(d.Lookback),
		Timeline:     d.Timeline,

		FiringsTotal:        d.FiringsTotal,
		FiringsLC:           d.FiringsLC,
		UnattributedFirings: d.UnattributedFirings,
		ControlFirings:      d.ControlFirings,
		ControlAttributions: d.ControlAttributions,

		AllResolved:      d.AllResolved,
		LastResolvedAtPs: int64(d.LastResolvedAt),
		RecoveryBoundPs:  int64(d.RecoveryBound),

		SweepVariants: d.SweepVariants,
		Samples:       d.Samples,
		Metrics:       d.Metrics,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario slo -devices %d -seed %d -budget %d",
			d.Devices, d.Seed, d.Budget),
	}
	for _, w := range d.Windows {
		rep.Windows = append(rep.Windows, w.Name)
	}
	for _, r := range d.Rules {
		rep.Rules = append(rep.Rules, fmt.Sprintf("%s %s burn>=%g over (%s,%s)",
			r.Service, r.Severity, r.Threshold,
			d.Windows[r.FastWin].Name, d.Windows[r.SlowWin].Name))
	}
	for _, pm := range d.Postmortems {
		pp := SLOPostmortemPoint{
			Service:       pm.Alert.Service,
			Severity:      string(pm.Alert.Severity),
			FiringAtPs:    int64(pm.Alert.At),
			WindowStartPs: int64(pm.WindowStart),
			WindowEndPs:   int64(pm.WindowEnd),
			Attributed:    pm.Scheduled(),
		}
		for _, cse := range pm.Causes {
			pp.Causes = append(pp.Causes, SLOCausePoint{
				Kind: cse.Kind, Count: cse.Count, Scheduled: cse.Scheduled,
				FirstPs: int64(cse.First), LastPs: int64(cse.Last),
				Example: cse.Example,
			})
		}
		rep.Postmortems = append(rep.Postmortems, pp)
	}
	rep.AlertsAttributed = d.FiringsLC >= 1 && d.UnattributedFirings == 0 &&
		d.ControlFirings == 0 && d.ControlAttributions == 0
	rep.AlertsResolved = d.AllResolved && d.LastResolvedAt <= d.RecoveryBound
	rep.Deterministic = d.DeterministicSweep
	return rep, d, nil
}

// Gates reports whether every fleet10 acceptance gate held.
func (r *SLOReport) Gates() bool {
	return r.AlertsAttributed && r.AlertsResolved && r.Deterministic
}
