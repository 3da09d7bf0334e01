package wrapper

import (
	"testing"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/proto"
	"harmonia/internal/sim"
)

func TestWrapConvertsVendorPorts(t *testing.T) {
	for _, vendor := range []platform.Vendor{platform.Xilinx, platform.Intel} {
		mac, err := ip.MACModule(vendor, ip.Speed100G)
		if err != nil {
			t.Fatal(err)
		}
		w, overhead, err := Wrap(mac)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range w.Ports {
			if p.Family != proto.Unified {
				t.Errorf("%s port %s still %s after wrapping", vendor, p.Name, p.Family)
			}
		}
		if overhead.IsZero() {
			t.Error("wrapper overhead should be non-zero")
		}
		if w.Res == mac.Res {
			t.Error("wrapped module resources unchanged")
		}
	}
}

func TestWrappedModulesConverge(t *testing.T) {
	// The whole point: after wrapping, cross-vendor modules expose the
	// same interfaces, so upper-layer logic ports unchanged.
	xm, _ := ip.MACModule(platform.Xilinx, ip.Speed100G)
	im, _ := ip.MACModule(platform.Intel, ip.Speed100G)
	if hdl.InterfaceDiff(xm, im) == 0 {
		t.Fatal("native modules should differ")
	}
	wx, _, _ := Wrap(xm)
	wi, _, _ := Wrap(im)
	if d := hdl.InterfaceDiff(wx, wi); d != 0 {
		t.Errorf("wrapped cross-vendor interface diff = %d, want 0", d)
	}
}

func TestWrapIdempotentOnUnified(t *testing.T) {
	m := &hdl.Module{
		Name:   "already",
		Ports:  []proto.Interface{proto.NewUnifiedStream("s", 512)},
		Params: nil,
		Deps:   map[string]string{},
	}
	w, overhead, err := Wrap(m)
	if err != nil {
		t.Fatal(err)
	}
	if !overhead.IsZero() {
		t.Error("wrapping a unified module should cost nothing")
	}
	if w.Res != m.Res {
		t.Error("resources changed on a no-op wrap")
	}
}

func TestWrapNil(t *testing.T) {
	if _, _, err := Wrap(nil); err == nil {
		t.Error("Wrap(nil) should fail")
	}
}

func TestWrapOverheadTiny(t *testing.T) {
	// Fig. 16: every wrapper costs well under 1% of the device.
	caps := platform.DeviceA().Chip.Capacity
	lib, err := ip.Catalog(platform.Xilinx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lib.Names() {
		m, _ := lib.Lookup(name)
		_, overhead, err := Wrap(m)
		if err != nil {
			t.Fatal(err)
		}
		if f := OverheadFraction(overhead, caps); f > 0.01 {
			t.Errorf("%s wrapper overhead %.3f%% exceeds 1%%", name, f*100)
		}
	}
}

// rawGbps is one side's raw bandwidth: width bits per clock period.
func rawGbps(clk *sim.Clock, width int) float64 {
	return float64(width) / clk.Period().Nanoseconds()
}

// sustainedGbps pushes n back-to-back transfers of size bytes through d
// and reports the rate at which they complete.
func sustainedGbps(d *DataPath, n, size int) float64 {
	var done sim.Time
	for i := 0; i < n; i++ {
		done = d.Transfer(0, size)
	}
	return float64(n*size*8) / (done - d.FixedLatency()).Nanoseconds()
}

func TestDataPathLosslessCondition(t *testing.T) {
	// 512b @ 322MHz MAC side, 1024b @ 161MHz user side: S×M == R×U, so
	// the path sustains the source rate.
	src := sim.NewClock("mac", 322)
	dst := sim.NewClock("user", 161)
	d, err := NewDataPath("dp", src, 512, dst, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got, in := sustainedGbps(d, 2000, 1024), rawGbps(src, 512); got < in*0.98 {
		t.Errorf("S*M=%v R*U=%v sustained %.1f Gbps, want lossless", in, rawGbps(dst, 1024), got)
	}
	// Half the destination width: the path loses half the source rate.
	d2, _ := NewDataPath("dp2", src, 512, dst, 512)
	if got, in := sustainedGbps(d2, 2000, 1024), rawGbps(src, 512); got > in*0.6 {
		t.Errorf("mismatched bandwidths sustained %.1f of %.1f Gbps", got, in)
	}
}

func TestDataPathThroughputPreserved(t *testing.T) {
	// Sustained transfer rate through the wrapper must match the source
	// bandwidth (no bubbles) when the destination keeps up.
	src := sim.NewClock("src", 322.265625)
	dst := sim.NewClock("dst", 322.265625)
	d, _ := NewDataPath("dp", src, 512, dst, 512)
	gbps := sustainedGbps(d, 5000, 1024)
	raw := rawGbps(src, 512)
	if gbps < raw*0.98 {
		t.Errorf("sustained %.1f Gbps through wrapper, want about %.1f (no bubbles)", gbps, raw)
	}
}

func TestDataPathFixedLatencySmall(t *testing.T) {
	src := sim.NewClock("src", 250)
	dst := sim.NewClock("dst", 250)
	d, _ := NewDataPath("dp", src, 512, dst, 512)
	// A few cycles at 250MHz: tens of nanoseconds, not microseconds.
	if lat := d.FixedLatency(); lat > 100*sim.Nanosecond {
		t.Errorf("fixed latency %v, want nanosecond scale", lat)
	}
	// Latency of a single beat equals serialization + fixed latency.
	done := d.Transfer(0, 64)
	if done < d.FixedLatency() {
		t.Errorf("single transfer done=%v below fixed latency", done)
	}
	if done > d.FixedLatency()+10*src.Period() {
		t.Errorf("single transfer done=%v too slow", done)
	}
}

func TestDataPathSlowerDestinationBounds(t *testing.T) {
	// Destination at half bandwidth: sustained rate must be bounded by
	// the destination, not the wrapper.
	src := sim.NewClock("src", 400)
	dst := sim.NewClock("dst", 200)
	d, _ := NewDataPath("dp", src, 512, dst, 512)
	const n, size = 2000, 512
	var done sim.Time
	for i := 0; i < n; i++ {
		done = d.Transfer(0, size)
	}
	gbps := float64(n*size*8) / done.Nanoseconds()
	out := rawGbps(dst, 512)
	if gbps > out*1.02 {
		t.Errorf("sustained %.1f Gbps exceeds destination bandwidth %.1f", gbps, out)
	}
	if gbps < out*0.95 {
		t.Errorf("sustained %.1f Gbps well below destination bandwidth %.1f", gbps, out)
	}
}

func TestDataPathWidthConversionCounts(t *testing.T) {
	src := sim.NewClock("src", 322)
	dst := sim.NewClock("dst", 250)
	d, _ := NewDataPath("dp", src, 2048, dst, 512)
	// 1024 bytes are four 2048-bit source beats and sixteen 512-bit
	// destination beats.
	d.Transfer(0, 1024)
	if got, want := d.srcPipe.NextFree(), 4*src.Period(); got != want {
		t.Errorf("source side booked until %v, want %v (4 beats)", got, want)
	}
	if got, want := d.dstPipe.NextFree()-dst.NextEdge(d.FixedLatency()), 16*dst.Period(); got != want {
		t.Errorf("destination side booked %v past the crossing, want %v (16 beats)", got, want)
	}
}

func TestDataPathValidation(t *testing.T) {
	clk := sim.NewClock("c", 100)
	if _, err := NewDataPath("bad", nil, 512, clk, 512); err == nil {
		t.Error("nil clock should fail")
	}
	if _, err := NewDataPath("bad", clk, 0, clk, 512); err == nil {
		t.Error("zero width should fail")
	}
	d, _ := NewDataPath("ok", clk, 512, clk, 512)
	if got := d.Transfer(42, 0); got != 42 {
		t.Error("zero-byte transfer should be free")
	}
}
