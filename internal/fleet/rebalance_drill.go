package fleet

import (
	"fmt"

	"harmonia/internal/faults"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The fleet9 rebalance drill proves the crash-safety contract of the
// background rebalancer: a planned drain-and-rebuild cycle carries
// every established flow with zero disruption, a source killed
// mid-pre-copy degrades to the snapshot-fallback failover path bounded
// by the cold-restart baseline, and a concurrent failover preempts an
// in-flight rebalance move on the PR-load budget — all provable from
// the migration records and the budget grant log of one seeded run.
//
// Each case builds the same fleet, fragments it through four
// drain→revive churn cycles (stranding retired queue ranges on the
// churned nodes), then serves traffic with the rebalancer armed while
// case-specific migration faults fire.

// rebalWindowDur is the measurement window of the rebalance phase.
const rebalWindowDur = 100 * sim.Microsecond

// rebalChurnRounds is how many drain→revive cycles fragment the fleet
// before the rebalancer starts.
const rebalChurnRounds = 4

// coldRestartDisruptionBound is the fleet4 cold-restart disruption
// baseline (BENCH_migrate.json: cold.disruption = 0.1220). A rebalance
// source killed mid-move must degrade no worse than a fleet that never
// migrated at all.
const coldRestartDisruptionBound = 0.122

// RebalanceCase is one run of the drill under one fault scenario.
type RebalanceCase struct {
	Name    string `json:"name"`
	Windows int    `json:"windows"`
	Budget  int    `json:"budget"`
	// Armed lists the migration faults latched before the run.
	Armed []string `json:"armed,omitempty"`

	// The fleet fragmentation score and stranded host queues at the
	// rebalancer's start and end — the planned case must strictly
	// decrease the score.
	FragScoreBefore float64 `json:"frag_score_before"`
	FragScoreAfter  float64 `json:"frag_score_after"`
	StrandedBefore  int     `json:"stranded_queues_before"`
	StrandedAfter   int     `json:"stranded_queues_after"`

	// The rebalancer's rebuild and move counters.
	QueuesReclaimed int `json:"queues_reclaimed"`
	Rebuilds        int `json:"rebuilds"`
	MovesPlanned    int `json:"moves_planned"`
	MovesDone       int `json:"moves_done"`
	MovesAborted    int `json:"moves_aborted"`
	Retries         int `json:"retries"`

	// Flow disruption against the pre-rebalance pins: of the flows
	// established before the rebalancer started, how many land on a
	// different backend after it.
	Established int     `json:"established_flows"`
	Disrupted   int     `json:"disrupted_flows"`
	Disruption  float64 `json:"disruption"`

	// Budget evidence: PreemptionPairs counts the grant-log pairs where
	// a failover started ahead of an earlier-requested move.
	PeakConcurrentLoads int `json:"peak_concurrent_loads"`
	LoadsPreempted      int `json:"loads_preempted"`
	PreemptionPairs     int `json:"preemption_pairs"`

	// Failovers counts node evacuations during the rebalance phase;
	// SnapshotFallbacks of the migrations took the periodic-snapshot
	// fallback (the kill-source degradation path).
	Failovers         int `json:"failovers"`
	SnapshotFallbacks int `json:"snapshot_fallbacks"`

	// Records carries every rebalance move's migration record (per-phase
	// timestamps, row accounting, retries, abort flag); failover
	// evacuations during the case ride along with PlannedAt == 0.
	Records []MigrationRecord `json:"records"`

	// Registry is the end-of-run registry for Prometheus export.
	Registry *obs.Registry `json:"-"`
}

// movesClean reports whether every completed rebalance move in the case
// restored exactly what it carried.
func (cc *RebalanceCase) movesClean() bool {
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

// RebalanceDrillResult is the fleet9 report and the machine-readable
// artifact (BENCH_rebalance.json), gates and repro line included.
type RebalanceDrillResult struct {
	Experiment string `json:"experiment"` // always "fleet9"
	App        string `json:"app"`
	Devices    int    `json:"devices"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`

	// ColdRestartBound is the fleet4 cold-restart disruption baseline
	// the kill-source case is judged against.
	ColdRestartBound float64 `json:"cold_restart_bound"`

	Cases []RebalanceCase `json:"cases"`

	// The acceptance gates:
	//   - CarriesAllFlows: the planned cycle completed moves, every
	//     completed move restored exactly the rows it carried (pre-copy
	//     + delta, nothing dropped), the injected faults were absorbed
	//     by retries, and disruption is exactly zero;
	//   - FragDecreases: the planned cycle strictly decreased the
	//     fragmentation score and rebuilt at least one node;
	//   - FaultedWithinBound: the kill-source case aborted the move,
	//     fell back to snapshot failover, and stayed within the
	//     cold-restart disruption bound without ever exceeding the
	//     PR-load cap;
	//   - FailoverPreempts: at budget 1, the concurrent failover's grant
	//     jumped ahead of a move planned earlier (grant-log pairs exist)
	//     and the cap held.
	CarriesAllFlows    bool `json:"carries_all_flows"`
	FragDecreases      bool `json:"frag_decreases"`
	FaultedWithinBound bool `json:"faulted_within_bound"`
	FailoverPreempts   bool `json:"failover_preempts"`

	// Repro rebuilds this exact report from the seed.
	Repro string `json:"repro"`
}

// Failures names every fleet9 gate that did not hold.
func (r *RebalanceDrillResult) Failures() []string {
	return failedGates(
		gate{"carries_all_flows", r.CarriesAllFlows},
		gate{"frag_decreases", r.FragDecreases},
		gate{"faulted_within_bound", r.FaultedWithinBound},
		gate{"failover_preempts", r.FailoverPreempts},
	)
}

// rebalanceCaseSpec fixes one case's windows, budget and fault plan.
type rebalanceCaseSpec struct {
	name    string
	windows int
	budget  int
	arm     []faults.Kind
	// killUnrelatedAt, when >= 0, kills a node uninvolved in any move at
	// that window's start — the concurrent failover the budget must let
	// preempt the pending moves.
	killUnrelatedAt int
}

// rebalTraffic derives one window's deterministic traffic phase.
func rebalTraffic(seed int64, window int) Traffic {
	return Traffic{
		Service: chaosApp, OfferedGbps: 100, PktBytes: 1024,
		Flows: 2048, Jitter: 0.2,
		Seed: seed*2_000_003 + int64(window+16)*1000,
	}
}

// pickUnrelatedNode finds the highest-commissioned healthy node that
// hosts replicas and is neither the rebuild victim nor any move's
// target — killing it exercises failover preemption without touching
// the moves themselves.
func pickUnrelatedNode(c *Cluster) *Node {
	excluded := map[string]bool{}
	if rb := c.rebalance; rb != nil {
		if rb.victim != nil {
			excluded[rb.victim.ID] = true
		}
		for _, mv := range rb.moves {
			if mv.dst != nil {
				excluded[mv.dst.ID] = true
			}
		}
	}
	for i := len(c.nodes) - 1; i >= 0; i-- {
		n := c.nodes[i]
		if n.state == Healthy && !excluded[n.ID] && len(n.replicas) > 0 {
			return n
		}
	}
	return nil
}

// runRebalanceCase builds, fragments and rebalances one fleet.
func runRebalanceCase(opts DrillOptions, spec rebalanceCaseSpec) (*RebalanceCase, error) {
	cfg := DefaultConfig()
	cfg.Seed = opts.Seed
	// The drill's windows are short relative to the production snapshot
	// cadence; keep the dead-node fallback fresh enough to bound the
	// kill-source case (fleet4 uses the same setting).
	cfg.SnapshotEvery = 2

	svc, err := drillService(chaosApp, 2*opts.Devices, net.IPv4(20, 0, 0, 1), rebalancePool)
	if err != nil {
		return nil, err
	}
	c, err := BuildCoResidentCluster(cfg, []Service{svc}, opts.Devices)
	if err != nil {
		return nil, err
	}
	c.Metrics().SetConstLabels(map[string]string{"case": spec.name})
	if opts.Trace != nil {
		c.SetTrace(opts.Trace.Process(spec.name))
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	if _, err := c.Serve(300*sim.Microsecond, rebalTraffic(opts.Seed, -1)); err != nil {
		return nil, err
	}

	// Fragment: drain a node (its evictions retire queue ranges), let the
	// evacuation settle, revive it empty, and serve so re-placements and
	// fresh pins land on the churned topology.
	nodes := c.Nodes()
	for round := 0; round < rebalChurnRounds; round++ {
		id := nodes[round].ID
		if _, err := c.DrainNode(c.Now(), id); err != nil {
			return nil, err
		}
		c.RunMonitorUntil(c.Now() + cfg.ReconfigTime + 4*cfg.Heartbeat)
		if err := c.Revive(c.Now(), id); err != nil {
			return nil, err
		}
		if _, err := c.Serve(rebalWindowDur, rebalTraffic(opts.Seed, -2-round)); err != nil {
			return nil, err
		}
	}

	// Drain one backend so the pool disagrees with established pins: a
	// migration that loses rows now shows up as disruption, exactly as in
	// the fleet4 baseline this drill is bounded by.
	if _, err := c.RemoveBackend(chaosApp, backends(rebalancePool)[0], false); err != nil {
		return nil, err
	}

	// Ground truth: every pin established before the rebalancer starts.
	pins := flowPins(c.Replicas())

	cc := &RebalanceCase{Name: spec.name, Windows: spec.windows, Budget: spec.budget}
	before := c.Fragmentation()
	cc.FragScoreBefore, cc.StrandedBefore = before.Score, before.StrandedQueues
	c.SetLoadBudget(spec.budget)
	c.SetRebalance(true)
	for _, kind := range spec.arm {
		if err := c.ArmMigrationFault(kind); err != nil {
			return nil, err
		}
		cc.Armed = append(cc.Armed, string(kind))
	}
	preFailovers := len(c.Failovers())

	for w := 0; w < spec.windows; w++ {
		if w == spec.killUnrelatedAt {
			victim := pickUnrelatedNode(c)
			if victim == nil {
				return nil, fmt.Errorf("fleet: no unrelated node to kill at window %d", w)
			}
			c.traceFault(string(faults.KillNode), victim.ID, 0)
			if err := c.Kill(victim.ID); err != nil {
				return nil, err
			}
		}
		if _, err := c.Serve(rebalWindowDur, rebalTraffic(opts.Seed, w)); err != nil {
			return nil, err
		}
	}
	c.SetRebalance(false)
	after := c.Fragmentation()
	cc.FragScoreAfter, cc.StrandedAfter = after.Score, after.StrandedQueues
	st := c.RebalanceStats()
	cc.QueuesReclaimed, cc.Rebuilds, cc.Retries = st.QueuesReclaimed, st.Rebuilds, st.Retries
	cc.MovesPlanned, cc.MovesDone, cc.MovesAborted = st.MovesPlanned, st.MovesDone, st.MovesAborted
	cc.Records = c.Migrations()
	cc.Failovers = len(c.Failovers()) - preFailovers
	for _, m := range cc.Records {
		if !m.Live {
			cc.SnapshotFallbacks++
		}
	}

	// Disruption against the pre-rebalance pins; a replica that lost its
	// home disrupts every flow it held.
	byName := map[string]*Replica{}
	for _, r := range c.Replicas() {
		byName[r.Name()] = r
	}
	for name, entries := range pins {
		cc.Established += len(entries)
		cc.Disrupted += disrupted(byName[name], entries)
	}
	cc.Disruption = ratio(cc.Disrupted, cc.Established, 0)

	// Preemption evidence from the grant log.
	cc.PreemptionPairs = len(preemptionPairs(c.LoadEvents()))
	cc.LoadsPreempted = c.LoadsPreempted()
	cc.PeakConcurrentLoads = c.LoadBudgetPeak()
	cc.Registry = c.Metrics()
	return cc, nil
}

// RebalanceDrill runs the fleet9 experiment: the same fragmented fleet
// rebalanced three times — a clean planned cycle (with a corrupted
// delta frame and a stalled table read to prove the retry machinery), a
// source kill mid-pre-copy (degrading to snapshot-fallback failover),
// and a budget-1 run where a concurrent failover preempts the pending
// moves.
func RebalanceDrill(opts DrillOptions) (*RebalanceDrillResult, error) {
	if err := opts.check("rebalance", 8); err != nil {
		return nil, err
	}
	specs := []rebalanceCaseSpec{
		{name: "planned", windows: 80, budget: opts.Budget,
			arm:             []faults.Kind{faults.RebalanceCorruptDelta, faults.RebalanceStallRead},
			killUnrelatedAt: -1},
		{name: "kill-source", windows: 80, budget: opts.Budget,
			arm:             []faults.Kind{faults.RebalanceKillSource},
			killUnrelatedAt: -1},
		{name: "preempt", windows: 150, budget: 1, killUnrelatedAt: 6},
	}
	res := &RebalanceDrillResult{
		Experiment: "fleet9", App: chaosApp,
		Devices: opts.Devices, Seed: opts.Seed, Budget: opts.Budget,
		ColdRestartBound: coldRestartDisruptionBound,
		Repro: fmt.Sprintf("go run ./cmd/harmonia-fleet -scenario rebalance -devices %d -budget %d -seed %d",
			opts.Devices, opts.Budget, opts.Seed),
	}
	for _, spec := range specs {
		cc, err := runRebalanceCase(opts, spec)
		if err != nil {
			return nil, fmt.Errorf("fleet: rebalance case %s: %w", spec.name, err)
		}
		res.Cases = append(res.Cases, *cc)
		switch cc.Name {
		case "planned":
			res.CarriesAllFlows = cc.MovesDone >= 1 && cc.Disrupted == 0 &&
				cc.Retries >= len(cc.Armed) && cc.movesClean()
			res.FragDecreases = cc.FragScoreAfter < cc.FragScoreBefore && cc.Rebuilds >= 1
		case "kill-source":
			res.FaultedWithinBound = cc.MovesAborted >= 1 && cc.SnapshotFallbacks >= 1 &&
				cc.Disruption <= coldRestartDisruptionBound && cc.PeakConcurrentLoads <= cc.Budget
		case "preempt":
			res.FailoverPreempts = cc.PreemptionPairs >= 1 && cc.LoadsPreempted >= 1 &&
				cc.PeakConcurrentLoads <= cc.Budget
		}
	}
	return res, nil
}
