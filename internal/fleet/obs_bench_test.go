package fleet

import (
	"testing"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// benchRouteSetup builds a serving fleet and a prepared workload for
// the routed-packet hot path, with replicas already past ReadyAt.
func benchRouteSetup(b *testing.B) (*Cluster, *Phase, sim.Time) {
	b.Helper()
	c, err := BuildCluster(DefaultConfig(), testApp, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	ph, err := c.PreparePhase(sim.Millisecond, DefaultTraffic(testApp))
	if err != nil {
		b.Fatal(err)
	}
	now := 2 * c.Config().ReconfigTime
	c.advance(now)
	return c, ph, now
}

// BenchmarkRoutedPacket measures the dispatch hot path with tracing
// detached — the default state. The acceptance bar is zero allocations
// and no regression against the pre-observability router.
func BenchmarkRoutedPacket(b *testing.B) {
	c, ph, now := benchRouteSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Route(now, testApp, &ph.pkts[i%len(ph.pkts)])
	}
}

// BenchmarkRoutedPacketTraced measures the same path with a flight
// recorder attached (sampling divisor 1, every packet records into the
// bounded ring) — the worst-case tracing overhead.
func BenchmarkRoutedPacketTraced(b *testing.B) {
	c, ph, now := benchRouteSetup(b)
	rec := obs.NewFlightRecorder(4096)
	c.SetTrace(rec.Process("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Route(now, testApp, &ph.pkts[i%len(ph.pkts)])
	}
}

// BenchmarkRoutedPacketSampled measures the full-recorder default:
// 1-in-64 packet sampling, unbounded buffers.
func BenchmarkRoutedPacketSampled(b *testing.B) {
	c, ph, now := benchRouteSetup(b)
	rec := obs.NewRecorder()
	c.SetTrace(rec.Process("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Route(now, testApp, &ph.pkts[i%len(ph.pkts)])
	}
}
