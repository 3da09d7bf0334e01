package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"harmonia/internal/faults"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The determinism harness. Seeded results must not depend on the batch
// quantum, the worker count or (without RackP2C) the rack count. Each
// row runs under its base Config and every variant, traced, and each run
// must match the base on PhaseStats, Digest, trace bytes and burnState.

// detVariant sets a row's batch quantum and worker count and, when
// non-zero, its rack count.
type detVariant struct{ quantum, workers, racks int }

// detRow is one workload: a base Config, a build, a script serving
// every phase through detRun.phase, and the variants that must
// reproduce the base. -short runs only the first, a multi-worker one.
type detRow struct {
	name     string
	base     Config
	build    func(t *testing.T, cfg Config) *Cluster
	script   func(r *detRun)
	variants []detVariant
}

// detRun is one traced run of a row.
type detRun struct {
	t         *testing.T
	c         *Cluster
	digest    *Digest
	phases    []PhaseStats
	problems  []string
	sum, burn string // set when the run ends
	trace     []byte
}

// phase records one served phase: it folds it into the digest, checks
// conservation from the services' counter deltas — sent = served +
// dropped ≥ shed for each, and the services summing to the phase — and
// checks the fleet's ledger.
func (r *detRun) phase(st PhaseStats, err error) {
	r.t.Helper()
	r.must(err)
	for _, p := range ledger(r.c) {
		r.problems = append(r.problems, fmt.Sprintf("phase %d: %s", len(r.phases), p))
	}
	var sum ServiceSnapshot
	for i, d := range r.digest.Phase(st) {
		if d.Sent != d.Served+d.Dropped || d.Shed > d.Dropped {
			r.problems = append(r.problems, fmt.Sprintf("phase %d: %s %+v does not conserve", len(r.phases), r.c.Services()[i], d))
		}
		sum.Sent, sum.Served, sum.Dropped = sum.Sent+d.Sent, sum.Served+d.Served, sum.Dropped+d.Dropped
	}
	if sum.Sent != st.Sent || sum.Served != st.Served || sum.Dropped != st.Dropped {
		r.problems = append(r.problems, fmt.Sprintf("phase %d: services sum to %+v, phase is %+v", len(r.phases), sum, st))
	}
	r.phases = append(r.phases, st)
}

// ledger checks that the facts bind and unbind keep in step agree:
// each node's per-service tallies count its replicas, every replica in
// a node's set points back at that node and every placed replica is in
// its node's set, each node's stateful list is exactly its stateful
// replicas in name order, and the router's counters are the sum of the
// services'.
func ledger(c *Cluster) []string {
	var out []string
	for _, n := range c.nodes {
		counts := make([]int, len(c.svcOrder))
		var stateful []*Replica
		for _, r := range n.Replicas() {
			counts[r.svc.idx]++
			if r.Node != n.ID || r.node != n {
				out = append(out, fmt.Sprintf("%s in %s's set points at %q", r.Name(), n.ID, r.Node))
			}
			if r.svc.Stateful {
				stateful = append(stateful, r)
			}
		}
		if !slices.Equal(counts, n.svcCounts) {
			out = append(out, fmt.Sprintf("%s tallies %v, holds %v", n.ID, n.svcCounts, counts))
		}
		if !slices.Equal(stateful, n.stateful) {
			out = append(out, fmt.Sprintf("%s lists %d stateful replicas, holds %d", n.ID, len(n.stateful), len(stateful)))
		}
	}
	for _, r := range c.replicas {
		if r.Node != "" && (r.node == nil || r.node.ID != r.Node || r.node.replicas[r.Name()] != r) {
			out = append(out, fmt.Sprintf("%s placed on %q is not in its node's set", r.Name(), r.Node))
		}
	}
	var sum RouterSnapshot
	for _, name := range c.Services() {
		s := c.ServiceStats(name)
		sum.Sent, sum.Served, sum.Dropped = sum.Sent+s.Sent, sum.Served+s.Served, sum.Dropped+s.Dropped
		sum.HealthyServed, sum.Bytes = sum.HealthyServed+s.HealthyServed, sum.Bytes+s.Bytes
	}
	if got := c.RouterStats(); got != sum {
		out = append(out, fmt.Sprintf("router counts %+v, services sum to %+v", got, sum))
	}
	return out
}

// must fails the test on a script step's error.
func (r *detRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// runDet builds and scripts one traced run of row under cfg.
func runDet(t *testing.T, row detRow, cfg Config) *detRun {
	t.Helper()
	c := row.build(t, cfg)
	rec := obs.NewRecorder()
	c.SetTrace(rec.Process("fleet"))
	r := &detRun{t: t, c: c, digest: NewDigest(c)}
	row.script(r)
	var buf bytes.Buffer
	r.must(rec.WriteTrace(&buf))
	r.sum, r.burn, r.trace = r.digest.Sum(), burnState(c), buf.Bytes()
	return r
}

// determinism runs row's base and variants and returns every
// divergence from the base, conservation violation and empty phase.
func determinism(t *testing.T, row detRow) []string {
	t.Helper()
	variants := row.variants
	if testing.Short() {
		variants = variants[:1]
	}
	base := runDet(t, row, row.base)
	out := base.problems
	if len(base.phases) == 0 || slices.ContainsFunc(base.phases, func(st PhaseStats) bool { return st.Served == 0 }) ||
		slices.ContainsFunc(base.c.Services(), func(s string) bool { return base.c.ServiceStats(s).Served == 0 }) {
		out = append(out, fmt.Sprintf("base run served nothing in a phase or for a service: %+v", base.phases))
	}
	for _, v := range variants {
		cfg := row.base
		cfg.BatchQuantum, cfg.ServeWorkers = v.quantum, v.workers
		if v.racks != 0 {
			cfg.Racks = v.racks
		}
		got := runDet(t, row, cfg)
		diverge := func(what string, d bool) {
			if d {
				out = append(out, fmt.Sprintf("%+v: %s", v, what))
			}
		}
		for _, p := range got.problems {
			diverge(p, true)
		}
		diverge(fmt.Sprintf("phase stats diverge:\n base: %+v\n got:  %+v", base.phases, got.phases),
			!slices.Equal(got.phases, base.phases))
		diverge(fmt.Sprintf("digest %s != base %s", got.sum, base.sum), got.sum != base.sum)
		diverge("trace bytes diverge from base", !bytes.Equal(got.trace, base.trace))
		diverge(fmt.Sprintf("burn state diverges:\nbase:\n%s\ngot:\n%s", base.burn, got.burn), got.burn != base.burn)
	}
	return out
}

// TestDeterminism is the fleet's determinism contract, one row per
// workload shape. CI's race job runs the full matrix under -race.
func TestDeterminism(t *testing.T) {
	for _, row := range determinismRows(t) {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			checkRow(t, row)
		})
	}
}

// checkRow reports every problem determinism finds in row.
func checkRow(t *testing.T, row detRow) {
	t.Helper()
	for _, d := range determinism(t, row) {
		t.Error(d)
	}
}

// serveRow is the sharded kill workload — a clean phase, then one
// through a mid-phase failover — run at base and at each variant.
func serveRow(base Config, variants ...detVariant) detRow {
	return detRow{name: "serve", base: base, build: lbFleet(8),
		script: killScript(lbTraffic, heartbeatDetect), variants: variants}
}

// shardedConfig is the default Config on 4 router shards and one worker.
func shardedConfig() Config {
	cfg := DefaultConfig()
	cfg.RouterShards, cfg.ServeWorkers = 4, 1
	return cfg
}

// TestBatchQuantumInvariant: the quantum only chunks the barrier window
// — no control-plane work runs at a split and the flow caches survive
// it — so the serve workload matches across quantum sizes and worker
// counts, through its failover.
func TestBatchQuantumInvariant(t *testing.T) {
	t.Parallel()
	checkRow(t, serveRow(shardedConfig(), detVariant{64, 2, 0}, detVariant{1, 1, 0},
		detVariant{64, 1, 0}, detVariant{4096, 8, 0}, detVariant{0, 8, 0}))
}

// TestServeDeterministicAcrossWorkers: the serve workload does not
// depend on how many workers route the shards.
func TestServeDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	checkRow(t, serveRow(shardedConfig(), detVariant{0, 2, 0}, detVariant{0, 8, 0}))
}

// TestServeDeterministicRepeatable: two runs of the serve workload on
// GOMAXPROCS workers are equal.
func TestServeDeterministicRepeatable(t *testing.T) {
	t.Parallel()
	cfg := shardedConfig()
	cfg.ServeWorkers = 0
	checkRow(t, serveRow(cfg, detVariant{0, 0, 0}))
}

// TestDeterminismHarnessDetectsDivergence checks that the harness can
// fail: a script whose traffic seed reads the worker count or the batch
// quantum must be reported as divergent.
func TestDeterminismHarnessDetectsDivergence(t *testing.T) {
	for name, knob := range map[string]func(Config) int{
		"workers": func(cfg Config) int { return cfg.ServeWorkers },
		"quantum": func(cfg Config) int { return cfg.BatchQuantum },
	} {
		row := detRow{name: name, base: DefaultConfig(), build: lbFleet(8), variants: []detVariant{{64, 2, 0}},
			script: func(r *detRun) { r.phase(lbTraffic(r.c, 4*sim.Millisecond, int64(knob(r.c.cfg)))) }}
		if !slices.ContainsFunc(determinism(t, row), func(d string) bool { return strings.Contains(d, "digest") }) {
			t.Errorf("seed read from %s: the harness reported no digest divergence", name)
		}
	}
}

// lbFleet builds n layer4-lb nodes hosting n replicas.
func lbFleet(n int) func(t *testing.T, cfg Config) *Cluster {
	return func(t *testing.T, cfg Config) *Cluster {
		c, err := BuildCluster(cfg, testApp, n, n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// lbTraffic serves d of layer4-lb traffic with its seed bumped.
func lbTraffic(c *Cluster, d sim.Time, bump int64) (PhaseStats, error) {
	tr := DefaultTraffic(testApp)
	tr.OfferedGbps = 200
	tr.Seed += bump
	return c.Serve(d, tr)
}

// killScript settles the fleet, serves a clean phase, kills a device
// and serves a reseeded phase of detect(c) through its failover.
func killScript(serve func(c *Cluster, d sim.Time, bump int64) (PhaseStats, error), detect func(c *Cluster) sim.Time) func(r *detRun) {
	return func(r *detRun) {
		c := r.c
		c.RunMonitorUntil(2 * c.cfg.ReconfigTime)
		r.phase(serve(c, 120*sim.Microsecond, 0))
		r.must(c.Kill(c.Nodes()[2].ID))
		r.phase(serve(c, detect(c), 50))
	}
}

// heartbeatDetect and gossipDetect outlast detection and re-placement
// under the central sweep and under gossip health.
func heartbeatDetect(c *Cluster) sim.Time {
	return sim.Time(c.cfg.FailedAfter+2)*c.cfg.Heartbeat + 2*c.cfg.ReconfigTime
}

func gossipDetect(c *Cluster) sim.Time { return 2*c.GossipDetectionBound() + 2*c.cfg.ReconfigTime }

// determinismRows lists the harness's workloads.
func determinismRows(t *testing.T) []detRow {
	wide := []detVariant{{64, 2, 0}, {64, 1, 0}, {4096, 1, 0}, {0, 2, 0}, {4096, 2, 0}, {0, 8, 0}, {64, 8, 0}, {4096, 8, 0}}
	drill := []detVariant{{64, 2, 0}, {4096, 8, 0}, {0, 8, 0}}
	sharded, gossip := shardedConfig(), DefaultConfig()
	gossip.GossipHealth, gossip.ServeWorkers = true, 1
	racks, rackP2C, gossipDrill := gossip, gossip, gossip
	racks.Racks, racks.ServeWorkers = 1, 0
	rackP2C.Racks, rackP2C.RackP2C = 4, true
	gossipDrill.Racks, gossipDrill.RackP2C = 2, true
	alert, rebalance := sharded, sharded
	alert.SLOWindowTicks, alert.SlotRes = []int{2, 8, 24, 48}, coresSlotRes
	rebalance.SnapshotEvery = 2
	migrate := DefaultConfig()
	migrate.ServeWorkers, migrate.SnapshotEvery = 1, 2
	// The storm rows run the first ten windows of the drills' workloads
	// at seed 11 and budget 2.
	storm, coresStorm := mustWorkload(t)(ChaosWorkload(24, 11)), mustWorkload(t)(CoResidencyWorkload(16, 11))
	alertFleet := mustWorkload(t)(CoResidencyWorkload(24, 11))
	for _, w := range []*Workload{&storm, &coresStorm} {
		w.Config.ServeWorkers, w.Budget, w.Windows = 1, 2, 10
	}
	stateful := func(t *testing.T, cfg Config) *Cluster { return buildStateful(t, cfg, 6, 6) }

	return []detRow{
		{
			// Two co-resident services in one merged phase.
			name: "coresident", base: sharded,
			build: func(t *testing.T, cfg Config) *Cluster { return coResTestCluster(t, cfg, 8) },
			script: killScript(func(c *Cluster, d sim.Time, bump int64) (PhaseStats, error) {
				return c.ServeMulti(d, coResTraffics(bump))
			}, heartbeatDetect),
			variants: []detVariant{{64, 2, 0}, {64, 1, 0}, {4096, 8, 0}, {0, 8, 0}},
		},
		{
			// Without RackP2C the racks only group; gossip health on.
			name: "rack-count", base: racks, build: lbFleet(8),
			script:   killScript(lbTraffic, gossipDetect),
			variants: []detVariant{{0, 8, 4}, {0, 0, 2}, {0, 0, 4}},
		},
		{
			// Rack-first dispatch: barrier-frozen digests, hash-drawn racks.
			name: "rack-p2c", base: rackP2C, build: lbFleet(8),
			script:   killScript(lbTraffic, gossipDetect),
			variants: []detVariant{{0, 2, 0}, {0, 8, 0}},
		},
		{
			// fleet10's SLO layer: a thermal excursion under static shedding
			// and a kill fire alerts that all resolve by the tail.
			name: "alert", base: alert, build: buildWorkload(alertFleet),
			script: func(r *detRun) {
				c := r.c
				c.RunMonitorUntil(2 * c.cfg.ReconfigTime)
				serve := func(d sim.Time, seed int64) { r.phase(c.ServeMulti(d, coresTraffics(seed, int(seed)))) }
				serve(200*sim.Microsecond, 1)
				for _, n := range c.Nodes()[:3] {
					r.must(c.Overheat(n.ID, 70_000))
				}
				serve(400*sim.Microsecond, 2)
				r.must(c.Kill(c.Nodes()[5].ID))
				serve(400*sim.Microsecond, 3)
				for _, n := range c.Nodes()[:3] {
					r.must(c.Cool(n.ID))
				}
				serve(4*sim.Millisecond, 4) // the slowest window (48 ticks) drains
				if log := string(c.AlertLogBytes()); !strings.Contains(log, "state=firing") ||
					!strings.Contains(log, "state=resolved") {
					r.t.Fatalf("mini-storm alerts did not fire and resolve; log:\n%s", log)
				}
			},
			variants: wide,
		},
		{
			// fleet9: churn strands queue ranges, then the rebalancer runs
			// with a kill of a move's target armed.
			name: "rebalance", base: rebalance, build: stateful,
			script: func(r *detRun) {
				c := r.c
				tr := DefaultTraffic(testApp)
				tr.Flows = 512
				r.phase(c.Serve(200*sim.Microsecond, tr))
				churnFragment(r.t, c, 2, r.phase)
				c.SetLoadBudget(2)
				c.SetRebalance(true)
				r.must(c.ArmMigrationFault(faults.RebalanceKillTarget))
				tr.Seed += 40
				r.phase(c.Serve(600*sim.Microsecond, tr))
				tr.Seed++
				r.phase(c.Serve(3*sim.Millisecond, tr))
			},
			variants: wide,
		},
		{
			// fleet4: a planned drain carries live tables, then a kill falls
			// back to the dead node's last periodic snapshot.
			name: "migrate", base: migrate, build: stateful,
			script: func(r *detRun) {
				c := r.c
				r.phase(c.Serve(300*sim.Microsecond, DefaultTraffic(chaosApp)))
				_, err := c.RemoveBackend(chaosApp, backends(migrationPool)[0], false)
				r.must(err)
				_, err = c.DrainNode(c.Now(), c.Nodes()[1].ID)
				r.must(err)
				r.phase(lbTraffic(c, 300*sim.Microsecond, 100))
				r.must(c.Kill(mostLoaded(c).ID))
				r.phase(lbTraffic(c, heartbeatDetect(c), 200))
				live := 0
				for _, m := range c.Migrations() {
					if m.Live {
						live++
					}
				}
				if live == 0 || live == len(c.Migrations()) {
					r.t.Fatalf("%d of %d migrations live, want both paths", live, len(c.Migrations()))
				}
			},
			variants: drill,
		},
		// fleet5: the chaos drill's storm on the scale plane.
		workloadRow("storm", storm, drill),
		// fleet8: the storm against three co-resident services while an
		// elective scale-out queues behind the PR-load budget.
		workloadRow("coresident-storm", coresStorm, drill),
		{
			// fleet7: a false suspicion is refuted, then a kill is
			// confirmed, with traffic served through both.
			name: "gossip", base: gossipDrill, build: lbFleet(16),
			script: func(r *detRun) {
				c := r.c
				c.RunMonitorUntil(2 * c.cfg.ReconfigTime)
				r.phase(lbTraffic(c, 50*sim.Microsecond, 0))
				_, err := c.InjectGossipSuspicion(c.Nodes()[1].ID)
				r.must(err)
				r.phase(lbTraffic(c, c.GossipDetectionBound(), 1))
				r.must(c.Kill(c.Nodes()[8].ID))
				r.phase(lbTraffic(c, gossipDetect(c), 2))
				kinds := map[string]bool{}
				for _, ev := range c.GossipEvents() {
					kinds[ev.Kind] = true
				}
				if !kinds["refuted"] || !kinds["confirmed"] {
					r.t.Fatalf("gossip events %v, want a refutation and a confirmation", kinds)
				}
			},
			variants: drill,
		},
	}
}

// workloadRow runs wl's warm-up and windows as one row, wl.Config
// being its base.
func workloadRow(name string, wl Workload, variants []detVariant) detRow {
	return detRow{name: name, base: wl.Config, build: buildWorkload(wl), variants: variants,
		script: func(r *detRun) {
			run, err := wl.Start(r.c)
			r.must(err)
			r.phase(run.Warmup, nil)
			for w := 0; w < wl.Windows; w++ {
				r.must(run.Script(w))
				st, _, err := run.Serve(w)
				r.phase(st, err)
			}
		}}
}

// mustWorkload unwraps a workload constructor's result.
func mustWorkload(t *testing.T) func(Workload, *faults.Schedule, error) Workload {
	return func(wl Workload, _ *faults.Schedule, err error) Workload {
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
}

// buildWorkload commissions and places wl's fleet under cfg.
func buildWorkload(wl Workload) func(t *testing.T, cfg Config) *Cluster {
	return func(t *testing.T, cfg Config) *Cluster {
		wl.Config = cfg
		c, err := wl.Commission()
		if err == nil {
			_, err = c.Place(0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}
