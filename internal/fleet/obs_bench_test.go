package fleet

import (
	"testing"

	"harmonia/internal/obs"
)

// benchRoutedPacket measures the routed-packet path: each iteration
// prepares one heartbeat window of traffic outside the timer and runs it
// inside, so the timed work is dispatch plus that window's barrier. It
// reports ns/pkt over every packet the windows offered. trace, when
// set, attaches a recorder first.
func benchRoutedPacket(b *testing.B, trace *obs.Recorder) {
	cfg := DefaultConfig()
	c, err := BuildCluster(cfg, testApp, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	if trace != nil {
		c.SetTrace(trace.Process("bench"))
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	t := DefaultTraffic(testApp)
	var pkts int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ph, err := c.PreparePhase(cfg.Heartbeat, t)
		if err != nil {
			b.Fatal(err)
		}
		pkts += ph.n
		b.StartTimer()
		if _, err := ph.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(pkts, 1)), "ns/pkt")
}

// BenchmarkRoutedPacket measures the dispatch hot path with tracing
// detached — the default state.
func BenchmarkRoutedPacket(b *testing.B) { benchRoutedPacket(b, nil) }

// BenchmarkRoutedPacketTraced measures the same path with a flight
// recorder attached (sampling divisor 1, every packet records into the
// bounded ring) — the worst-case tracing overhead.
func BenchmarkRoutedPacketTraced(b *testing.B) { benchRoutedPacket(b, obs.NewFlightRecorder(4096)) }

// BenchmarkRoutedPacketSampled measures the full-recorder default:
// 1-in-64 packet sampling, unbounded buffers.
func BenchmarkRoutedPacketSampled(b *testing.B) { benchRoutedPacket(b, obs.NewRecorder()) }
