package bench

import (
	"harmonia/internal/apps"
	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

// e2eRTT is the network/host round-trip added to device latency so
// end-to-end latencies sit at the microsecond scale the paper reports.
const e2eRTT = 4 * sim.Microsecond

// Fig17a: Sec-Gateway throughput/latency across packet sizes, with and
// without Harmonia.
func Fig17a() (*metrics.Figure, error) {
	const pkts = 1500
	run := func(size int, harmonia bool) (float64, sim.Time, error) {
		g, err := apps.NewSecGateway(platform.Xilinx, harmonia)
		if err != nil {
			return 0, 0, err
		}
		stream, err := workload.Packets(workload.PacketConfig{Count: pkts, Size: size, Flows: 64, Seed: 4})
		if err != nil {
			return 0, 0, err
		}
		_, lat := g.Process(0, stream[0])
		var done sim.Time
		for _, p := range stream[1:] {
			_, done = g.Process(0, p)
		}
		return metrics.Gbps(int64((pkts-1)*size), done), lat + e2eRTT, nil
	}
	return abSweep("fig17a", "Sec-Gateway performance", "pkt-bytes", "", "harmonia", "native", "us",
		workload.PacketSizes, run)
}

// Fig17b: Layer-4 LB throughput/latency across packet sizes.
func Fig17b() (*metrics.Figure, error) {
	const pkts = 1500
	vip := net.IPv4(20, 0, 0, 1)
	backends := []net.IPAddr{net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), net.IPv4(10, 0, 0, 3)}
	run := func(size int, harmonia bool) (float64, sim.Time, error) {
		lb, err := apps.NewLayer4LB(platform.Xilinx, harmonia)
		if err != nil {
			return 0, 0, err
		}
		if err := lb.AddVIP(vip, backends); err != nil {
			return 0, 0, err
		}
		stream, err := workload.Packets(workload.PacketConfig{
			Count: pkts, Size: size, Flows: 128, VIPs: []net.IPAddr{vip}, Seed: 5,
		})
		if err != nil {
			return 0, 0, err
		}
		_, lat, _ := lb.Process(0, stream[0])
		var done sim.Time
		for _, p := range stream[1:] {
			_, done, _ = lb.Process(0, p)
		}
		return metrics.Gbps(int64((pkts-1)*size), done), lat + e2eRTT, nil
	}
	return abSweep("fig17b", "Layer-4 LB performance", "pkt-bytes", "", "harmonia", "native", "us",
		workload.PacketSizes, run)
}

// Fig17c: Host Network offload throughput/latency across packet sizes.
func Fig17c() (*metrics.Figure, error) {
	const pkts = 1200
	run := func(size int, harmonia bool) (float64, sim.Time, error) {
		hn, err := apps.NewHostNetwork(platform.Xilinx, 4, 16, harmonia)
		if err != nil {
			return 0, 0, err
		}
		stream, err := workload.Packets(workload.PacketConfig{Count: pkts, Size: size, Flows: 256, Seed: 6})
		if err != nil {
			return 0, 0, err
		}
		_, _, lat, _ := hn.Offload(0, stream[0])
		var done sim.Time
		for _, p := range stream[1:] {
			_, _, done, _ = hn.Offload(0, p)
		}
		return metrics.Gbps(int64((pkts-1)*size), done), lat + e2eRTT, nil
	}
	return abSweep("fig17c", "Host Network performance", "pkt-bytes", "", "harmonia", "native", "us",
		workload.PacketSizes, run)
}

// Fig17d: Retrieval QPS and latency versus corpus size (x is log10 of
// the item count: 9, 7, 5, 3 as in the paper).
func Fig17d() (*metrics.Figure, error) {
	run := func(x int, harmonia bool) (float64, sim.Time, error) {
		items := int64(1)
		for i := 0; i < x; i++ {
			items *= 10
		}
		r, err := apps.NewRetrieval(platform.Xilinx, 64, 32, harmonia)
		if err != nil {
			return 0, 0, err
		}
		qps := r.QPS(items)
		lat := sim.Time(1 / qps * float64(sim.Second))
		return qps, lat, nil
	}
	return abSweep("fig17d", "Retrieval performance", "log10-corpus", "", "harmonia", "native", "us",
		[]int{9, 7, 5, 3}, run)
}
