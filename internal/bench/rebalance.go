package bench

import (
	"fmt"

	"harmonia/internal/fleet"
)

// fleet9 — the crash-safe rebalancing drill. A fragmented fleet (four
// drain→revive churn cycles stranding retired queue ranges) is
// rebalanced three times: a clean planned cycle with a corrupted delta
// frame and a stalled table read (the retry machinery must absorb both
// with zero flow disruption), a source killed mid-pre-copy (the move
// aborts and failover degrades to the periodic-snapshot fallback, whose
// disruption must stay within the fleet4 cold-restart baseline), and a
// budget-1 run where a concurrent failover preempts the pending moves
// (provable from the grant log).

// coldRestartDisruptionBound is the fleet4 cold-restart disruption
// baseline (BENCH_migrate.json: cold.disruption = 0.1220). A rebalance
// source killed mid-move must degrade no worse than a fleet that never
// migrated at all.
const coldRestartDisruptionBound = 0.122

// RebalanceCasePoint is one drill case flattened for the report.
type RebalanceCasePoint struct {
	Name    string   `json:"name"`
	Windows int      `json:"windows"`
	Budget  int      `json:"budget"`
	Armed   []string `json:"armed,omitempty"`

	FragScoreBefore   float64 `json:"frag_score_before"`
	FragScoreAfter    float64 `json:"frag_score_after"`
	StrandedBefore    int     `json:"stranded_queues_before"`
	StrandedAfter     int     `json:"stranded_queues_after"`
	QueuesReclaimed   int     `json:"queues_reclaimed"`
	Rebuilds          int     `json:"rebuilds"`
	MovesPlanned      int     `json:"moves_planned"`
	MovesDone         int     `json:"moves_done"`
	MovesAborted      int     `json:"moves_aborted"`
	Retries           int     `json:"retries"`
	EstablishedFlows  int     `json:"established_flows"`
	DisruptedFlows    int     `json:"disrupted_flows"`
	Disruption        float64 `json:"disruption"`
	PeakLoads         int     `json:"peak_concurrent_loads"`
	LoadsPreempted    int     `json:"loads_preempted"`
	PreemptionPairs   int     `json:"preemption_pairs"`
	Failovers         int     `json:"failovers"`
	SnapshotFallbacks int     `json:"snapshot_fallbacks"`

	// Records carries every rebalance move's migration record (per-phase
	// timestamps, row accounting, retries, abort flag); failover
	// evacuations during the case ride along with PlannedAt == 0.
	Records []fleet.MigrationRecord `json:"records"`
}

// RebalanceReport is the machine-readable fleet9 artifact
// (BENCH_rebalance.json).
type RebalanceReport struct {
	Experiment string `json:"experiment"` // always "fleet9"
	App        string `json:"app"`
	Devices    int    `json:"devices"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`

	// ColdRestartBound is the fleet4 cold-restart disruption baseline
	// the kill-source case is judged against.
	ColdRestartBound float64 `json:"cold_restart_bound"`

	Cases []RebalanceCasePoint `json:"cases"`

	// The acceptance gates, pre-evaluated so CI can assert on the
	// artifact without re-deriving them.
	//
	// CarriesAllFlows: the planned cycle completed moves, every
	// completed move restored exactly the rows it carried (pre-copy +
	// delta, nothing dropped), the injected faults were absorbed by
	// retries, and disruption is exactly zero.
	CarriesAllFlows bool `json:"carries_all_flows"`
	// FragDecreases: the planned cycle strictly decreased the
	// fragmentation score and rebuilt at least one node.
	FragDecreases bool `json:"frag_decreases"`
	// FaultedWithinBound: the kill-source case aborted the move, fell
	// back to snapshot failover, and stayed within the cold-restart
	// disruption bound without ever exceeding the PR-load cap.
	FaultedWithinBound bool `json:"faulted_within_bound"`
	// FailoverPreempts: at budget 1, the concurrent failover's grant
	// jumped ahead of a move planned earlier (grant-log pairs exist)
	// and the cap held.
	FailoverPreempts bool `json:"failover_preempts"`

	// Repro is the one-command reproduction line.
	Repro string `json:"repro"`
}

// Gates reports whether every acceptance gate passed.
func (r *RebalanceReport) Gates() bool {
	return r.CarriesAllFlows && r.FragDecreases && r.FaultedWithinBound && r.FailoverPreempts
}

func rebalanceCasePoint(cc fleet.RebalanceCase) RebalanceCasePoint {
	return RebalanceCasePoint{
		Name: cc.Name, Windows: cc.Windows, Budget: cc.Budget, Armed: cc.Armed,
		FragScoreBefore: cc.FragBefore.Score, FragScoreAfter: cc.FragAfter.Score,
		StrandedBefore: cc.FragBefore.StrandedQueues, StrandedAfter: cc.FragAfter.StrandedQueues,
		QueuesReclaimed: cc.Stats.QueuesReclaimed, Rebuilds: cc.Stats.Rebuilds,
		MovesPlanned: cc.Stats.MovesPlanned, MovesDone: cc.Stats.MovesDone,
		MovesAborted: cc.Stats.MovesAborted, Retries: cc.Stats.Retries,
		EstablishedFlows: cc.Established, DisruptedFlows: cc.Disrupted,
		Disruption: cc.Disruption,
		PeakLoads:  cc.PeakConcurrentLoads, LoadsPreempted: cc.LoadsPreempted,
		PreemptionPairs: len(cc.PreemptionPairs), Failovers: cc.Failovers,
		SnapshotFallbacks: cc.SnapshotMigrations,
		Records:           cc.Records,
	}
}

// rebalanceMovesClean reports whether every completed rebalance move in
// a case restored exactly what it carried.
func rebalanceMovesClean(cc fleet.RebalanceCase) bool {
	for _, m := range cc.Records {
		if m.PlannedAt == 0 || m.Aborted {
			continue
		}
		if m.Dropped != 0 || m.Restored != m.Flows {
			return false
		}
	}
	return true
}

// FleetRebalanceReport runs the fleet9 drill and evaluates its gates.
func FleetRebalanceReport(opts fleet.DrillOptions) (*RebalanceReport, *fleet.RebalanceDrillResult, error) {
	d, err := fleet.RebalanceDrill(opts)
	if err != nil {
		return nil, nil, err
	}
	rep := &RebalanceReport{
		Experiment: "fleet9", App: cpApp,
		Devices: d.Devices, Seed: d.Seed, Budget: d.Budget,
		ColdRestartBound: coldRestartDisruptionBound,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario rebalance -devices %d -budget %d -seed %d",
			d.Devices, d.Budget, d.Seed),
	}
	byName := map[string]*fleet.RebalanceCase{}
	for i := range d.Cases {
		rep.Cases = append(rep.Cases, rebalanceCasePoint(d.Cases[i]))
		byName[d.Cases[i].Name] = &d.Cases[i]
	}
	if cc := byName["planned"]; cc != nil {
		rep.CarriesAllFlows = cc.Stats.MovesDone >= 1 && cc.Disrupted == 0 &&
			cc.Stats.Retries >= len(cc.Armed) && rebalanceMovesClean(*cc)
		rep.FragDecreases = cc.FragAfter.Score < cc.FragBefore.Score && cc.Stats.Rebuilds >= 1
	}
	if cc := byName["kill-source"]; cc != nil {
		rep.FaultedWithinBound = cc.Stats.MovesAborted >= 1 && cc.SnapshotMigrations >= 1 &&
			cc.Disruption <= coldRestartDisruptionBound && cc.PeakConcurrentLoads <= cc.Budget
	}
	if cc := byName["preempt"]; cc != nil {
		rep.FailoverPreempts = len(cc.PreemptionPairs) >= 1 && cc.LoadsPreempted >= 1 &&
			cc.PeakConcurrentLoads <= cc.Budget
	}
	return rep, d, nil
}
