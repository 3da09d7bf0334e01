package bench

import (
	"harmonia/internal/apps"
	"harmonia/internal/ip"
	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

// abSweep runs a two-configuration throughput/latency sweep and
// assembles the four-series figure of Figs. 10a-c and 17a-d: the
// throughput of configuration a (run(x, true)) and of b (run(x, false)),
// then their latencies in unit, "ns" or "us". yLabel labels the first
// series.
func abSweep(id, title, xLabel, yLabel, a, b, unit string, xs []int,
	run func(x int, isA bool) (tpt float64, lat sim.Time, err error)) (*metrics.Figure, error) {

	latIn := sim.Time.Microseconds
	if unit == "ns" {
		latIn = sim.Time.Nanoseconds
	}
	fig := &metrics.Figure{ID: id, Title: title}
	aT := &metrics.Series{Label: a + "-tpt", XLabel: xLabel, YLabel: yLabel}
	bT := &metrics.Series{Label: b + "-tpt"}
	aL := &metrics.Series{Label: a + "-lat-" + unit}
	bL := &metrics.Series{Label: b + "-lat-" + unit}
	for _, x := range xs {
		tA, lA, err := run(x, true)
		if err != nil {
			return nil, err
		}
		tB, lB, err := run(x, false)
		if err != nil {
			return nil, err
		}
		aT.Add(float64(x), tA)
		bT.Add(float64(x), tB)
		aL.Add(float64(x), latIn(lA))
		bL.Add(float64(x), latIn(lB))
	}
	fig.Series = append(fig.Series, aT, bT, aL, bL)
	return fig, nil
}

// Fig10a: MAC loopback throughput/latency, native interface vs through
// the wrapper, packet sizes 64-1024B.
func Fig10a() (*metrics.Figure, error) {
	const pkts = 2000
	run := func(size int, native bool) (float64, sim.Time, error) {
		n, err := rbb.NewNetwork(platform.Xilinx, ip.Speed100G, apps.UserClock(), apps.UserWidth)
		if err != nil {
			return 0, 0, err
		}
		n.SetNative(native)
		n.Filter.SetEnabled(false)
		n.Director.AddTenant(0, 0, 8)
		n.Director.SetDefaultTenant(0)
		// Latency: one isolated packet.
		lat, _, _ := n.Ingress(0, &net.Packet{WireBytes: size})
		// Throughput: a saturating burst on a fresh instance.
		n2, err := rbb.NewNetwork(platform.Xilinx, ip.Speed100G, apps.UserClock(), apps.UserWidth)
		if err != nil {
			return 0, 0, err
		}
		n2.SetNative(native)
		n2.Filter.SetEnabled(false)
		n2.Director.AddTenant(0, 0, 8)
		n2.Director.SetDefaultTenant(0)
		var done sim.Time
		for i := 0; i < pkts; i++ {
			done, _, _ = n2.Ingress(0, &net.Packet{WireBytes: size})
		}
		return metrics.Gbps(int64(pkts*size), done), lat, nil
	}
	return abSweep("fig10a", "MAC module: native vs wrapper", "pkt-bytes", "Gbps", "native", "wrapped", "ns",
		workload.PacketSizes, run)
}

// Fig10b: PCIe DMA host reads of 1K-16K, native vs wrapped.
func Fig10b() (*metrics.Figure, error) {
	const reads = 500
	run := func(size int, native bool) (float64, sim.Time, error) {
		h, err := rbb.NewHost(platform.Xilinx, 4, 8, ip.SGDMA, apps.UserClock(), apps.UserWidth)
		if err != nil {
			return 0, 0, err
		}
		h.SetNative(native)
		lat, err := h.Receive(0, 0, size)
		if err != nil {
			return 0, 0, err
		}
		h2, err := rbb.NewHost(platform.Xilinx, 4, 8, ip.SGDMA, apps.UserClock(), apps.UserWidth)
		if err != nil {
			return 0, 0, err
		}
		h2.SetNative(native)
		var done sim.Time
		for i := 0; i < reads; i++ {
			done, err = h2.Receive(0, i%16, size)
			if err != nil {
				return 0, 0, err
			}
		}
		return metrics.Gbps(int64(reads*size), done), lat, nil
	}
	return abSweep("fig10b", "PCIe DMA module: native vs wrapper", "read-bytes", "Gbps", "native", "wrapped", "ns",
		workload.ReadSizes, run)
}

// Fig10c: DDR random/sequential reads and writes at fixed 64B size,
// native vs wrapped. X encodes the pattern index: 0 rand-read,
// 1 rand-write, 2 seq-read, 3 seq-write.
func Fig10c() (*metrics.Figure, error) {
	const accesses = 5000
	patterns := []struct {
		mode  workload.AccessMode
		write bool
	}{
		{workload.Random, false},
		{workload.Random, true},
		{workload.Sequential, false},
		{workload.Sequential, true},
	}
	run := func(idx int, native bool) (float64, sim.Time, error) {
		pat := patterns[idx]
		m, err := rbb.NewMemory(platform.Xilinx, ip.DDR4Mem, apps.UserClock(), apps.UserWidth)
		if err != nil {
			return 0, 0, err
		}
		m.SetNative(native)
		gen, err := workload.NewAccessGen(pat.mode, 64, 1<<30, 99)
		if err != nil {
			return 0, 0, err
		}
		buf := make([]byte, 64)
		// Latency of one isolated access.
		var lat sim.Time
		if pat.write {
			lat = m.Write(0, gen.Next(), buf)
		} else {
			_, lat = m.Read(0, gen.Next(), 64)
		}
		// Throughput: issue the whole burst at t=0 so the device and the
		// wrapper pipeline independently; completion is the latest done.
		var done sim.Time
		for i := 0; i < accesses; i++ {
			addr := gen.Next()
			var d sim.Time
			if pat.write {
				d = m.Write(0, addr, buf)
			} else {
				_, d = m.Read(0, addr, 64)
			}
			if d > done {
				done = d
			}
		}
		return metrics.Gbps(int64(accesses*64), done), lat, nil
	}
	return abSweep("fig10c", "DDR module: native vs wrapper (rr/rw/sr/sw)", "pattern-index", "Gbps",
		"native", "wrapped", "ns", []int{0, 1, 2, 3}, run)
}
