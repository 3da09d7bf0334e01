package bench

import (
	"testing"

	"harmonia/internal/fleet"
)

// Micro-benchmarks for the routed-packet hot path at fleet scale. The
// cluster is built and matured once per benchmark; each iteration
// prepares a fresh phase outside the timer (flow indices, arrival
// offsets, flow hashes, router freeze) and times only Phase.Run — the
// batched dispatch loop — reporting ns per routed packet. CI runs
// these with -benchtime=1x -count=1 as a smoke test on every PR; local
// perf work should use -benchtime=5x or more so the per-iteration GC of
// the prepared phase storage amortises out of the average.

// fleetBenchPhases times ph.Run over b.N prepared phases on c.
func fleetBenchPhases(b *testing.B, c *fleet.Cluster, nodes int) {
	t := fleet.DefaultTraffic(cpApp)
	t.OfferedGbps = cpGbpsPerNode * float64(nodes)
	b.ResetTimer()
	var pkts int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ph, err := c.PreparePhase(cpPhase, t)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := ph.Run()
		if err != nil {
			b.Fatal(err)
		}
		pkts += st.Sent
	}
	if pkts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	}
}

// BenchmarkFleetFastPath1000 is the flat sharded dispatch path at 1000
// nodes — the configuration the fleet3 artifact gates at
// FastBatchedBoundNs ns/pkt.
func BenchmarkFleetFastPath1000(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.HeartbeatCohorts = cpCohorts(1000)
	c, err := fleet.BuildCluster(cfg, cpApp, 1000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	fleetBenchPhases(b, c, 1000)
}

// BenchmarkFleetRackPath1000 is the rack-first two-tier dispatch path
// (RackP2C + gossip health) at 1000 nodes.
func BenchmarkFleetRackPath1000(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.RackP2C = true
	cfg.GossipHealth = true
	c, err := fleet.BuildCluster(cfg, cpApp, 1000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	fleetBenchPhases(b, c, 1000)
}

// BenchmarkFleetQuantum64 is the fast path with an adversarially small
// batch quantum, bounding the cost of the quantum-split bookkeeping
// relative to BenchmarkFleetFastPath1000's default quantum.
func BenchmarkFleetQuantum64(b *testing.B) {
	cfg := fleet.DefaultConfig()
	cfg.HeartbeatCohorts = cpCohorts(1000)
	cfg.BatchQuantum = 64
	c, err := fleet.BuildCluster(cfg, cpApp, 1000, 1000)
	if err != nil {
		b.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	fleetBenchPhases(b, c, 1000)
}
