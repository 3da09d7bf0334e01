package baseline

import (
	"testing"

	"harmonia/internal/hostsw"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/shell"
	"harmonia/internal/workload"
)

func TestDeviceSupportMatrix(t *testing.T) {
	// Table 3.
	devs := platform.Catalog()
	want := map[string]map[string]bool{
		"vitis":    {"device-a": true, "device-b": false, "device-c": false, "device-d": false},
		"oneapi":   {"device-a": false, "device-b": false, "device-c": false, "device-d": true},
		"coyote":   {"device-a": true, "device-b": false, "device-c": false, "device-d": false},
		"harmonia": {"device-a": true, "device-b": true, "device-c": true, "device-d": true},
	}
	for _, fw := range All() {
		for devName, supported := range want[fw.Name()] {
			if got := fw.Supports(devs[devName]); got != supported {
				t.Errorf("%s.Supports(%s) = %v, want %v", fw.Name(), devName, got, supported)
			}
		}
	}
}

func TestOnlyHarmoniaSupportsInHouse(t *testing.T) {
	for _, fw := range All() {
		inHouse := fw.Supports(platform.DeviceB()) || fw.Supports(platform.DeviceC())
		if fw.Name() == "harmonia" && !inHouse {
			t.Error("harmonia must support in-house devices")
		}
		if fw.Name() != "harmonia" && inHouse {
			t.Errorf("%s should not support in-house devices", fw.Name())
		}
	}
}

func benchDemands() shell.Demands {
	// The framework benchmarks use compute/memory/host services.
	return shell.Demands{
		Memory: []shell.MemoryDemand{{Kind: ip.DDR4Mem}},
		Host:   &shell.HostDemand{Queues: 64},
	}
}

func TestHarmoniaShellSmallerThanBaselines(t *testing.T) {
	// Fig. 18a: Harmonia's shell uses 3.5-14.9% fewer resources than
	// Vitis/Coyote (device A) and oneAPI (device D).
	cases := []struct {
		fw  *Framework
		dev *platform.Device
	}{
		{Vitis(), platform.DeviceA()},
		{Coyote(), platform.DeviceA()},
		{OneAPI(), platform.DeviceD()},
	}
	h := Harmonia()
	for _, c := range cases {
		base, err := c.fw.ShellResources(c.dev, benchDemands())
		if err != nil {
			t.Fatalf("%s: %v", c.fw.Name(), err)
		}
		ours, err := h.ShellResources(c.dev, benchDemands())
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - float64(ours.LUT)/float64(base.LUT)
		if saving < 0.03 || saving > 0.30 {
			t.Errorf("harmonia vs %s on %s: LUT saving %.1f%%, want in the 3.5-14.9%% band (tolerance 3-30)",
				c.fw.Name(), c.dev.Name, saving*100)
		}
	}
}

func TestShellResourcesUnsupportedDevice(t *testing.T) {
	if _, err := Vitis().ShellResources(platform.DeviceD(), benchDemands()); err == nil {
		t.Error("vitis on an intel device should fail")
	}
}

func TestSoftwareConfigItems(t *testing.T) {
	// Table 4: register frameworks manage 84/115/60 items, Harmonia
	// 4/5/4 — a 15-23x simplification.
	for _, task := range hostsw.Tasks() {
		v, h, err := hostsw.ConfigCounts(task)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(v) / float64(h)
		if ratio < 15 || ratio > 23 {
			t.Errorf("%s simplification = %.1fx, want 15-23x", task, ratio)
		}
	}
	if _, _, err := hostsw.ConfigCounts("bogus"); err == nil {
		t.Error("unknown task should fail")
	}
}

func TestMatMulRateScalesWithParallelism(t *testing.T) {
	// Fig. 18b: rate grows with loop unrolling, comparable across
	// frameworks.
	for _, fw := range All() {
		r4, err := fw.MatMulRate(4)
		if err != nil {
			t.Fatal(err)
		}
		r8, _ := fw.MatMulRate(8)
		r16, _ := fw.MatMulRate(16)
		if !(r4 < r8 && r8 < r16) {
			t.Errorf("%s rates not increasing: %v %v %v", fw.Name(), r4, r8, r16)
		}
		if ratio := r16 / r4; ratio < 3.5 || ratio > 4.1 {
			t.Errorf("%s x16/x4 speedup = %.2f, want about 4", fw.Name(), ratio)
		}
	}
	// Comparable across frameworks: within a few percent.
	h, _ := Harmonia().MatMulRate(8)
	v, _ := Vitis().MatMulRate(8)
	if diff := (h - v) / v; diff > 0.05 || diff < -0.05 {
		t.Errorf("harmonia vs vitis matmul differs by %.1f%%", diff*100)
	}
	if _, err := Vitis().MatMulRate(0); err == nil {
		t.Error("zero parallelism should fail")
	}
}

func TestVerifyMatMul(t *testing.T) {
	if err := VerifyMatMul(64); err != nil {
		t.Error(err)
	}
}

func TestDBRateOrdering(t *testing.T) {
	// Fig. 18c: sequential > fixed > random is the approximate shape
	// (sequential streams rows; fixed hits one row; random misses).
	fw := Harmonia()
	seq, err := fw.DBRate(DefaultDBConfig(workload.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	fixed, _ := fw.DBRate(DefaultDBConfig(workload.Fixed))
	rnd, _ := fw.DBRate(DefaultDBConfig(workload.Random))
	if seq <= rnd {
		t.Errorf("sequential (%.0f) should beat random (%.0f)", seq, rnd)
	}
	if fixed <= rnd {
		t.Errorf("fixed (%.0f) should beat random (%.0f)", fixed, rnd)
	}
	// Millions of vectors per second, like the paper's 50-250M scale.
	if seq < 1e6 {
		t.Errorf("sequential rate %.0f vectors/s implausibly low", seq)
	}
	if _, err := fw.DBRate(DBConfig{}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestDBRateComparableAcrossFrameworks(t *testing.T) {
	cfg := DefaultDBConfig(workload.Sequential)
	h, _ := Harmonia().DBRate(cfg)
	c, _ := Coyote().DBRate(cfg)
	if diff := (h - c) / c; diff > 0.05 || diff < -0.05 {
		t.Errorf("harmonia vs coyote DB rate differs by %.1f%%", diff*100)
	}
}

func TestTCPRunShape(t *testing.T) {
	// Fig. 18d: throughput and latency both rise with packet size.
	fw := Harmonia()
	var prevG float64
	var prevL int64
	for _, size := range workload.TCPSizes {
		res, err := fw.TCPRun(size, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gbps <= prevG {
			t.Errorf("throughput not rising at %dB: %v after %v", size, res.Gbps, prevG)
		}
		if int64(res.Latency) <= prevL {
			t.Errorf("latency not rising at %dB", size)
		}
		// Microsecond-scale end-to-end latency.
		if res.Latency.Microseconds() < 10 || res.Latency.Microseconds() > 100 {
			t.Errorf("latency %v out of the tens-of-us band", res.Latency)
		}
		prevG, prevL = res.Gbps, int64(res.Latency)
	}
	if _, err := fw.TCPRun(10, 1); err == nil {
		t.Error("sub-minimum frame should fail")
	}
}

func TestTCPComparableAcrossFrameworks(t *testing.T) {
	h, _ := Harmonia().TCPRun(512, 1000)
	v, _ := Vitis().TCPRun(512, 1000)
	if diff := (h.Gbps - v.Gbps) / v.Gbps; diff > 0.05 || diff < -0.05 {
		t.Errorf("harmonia vs vitis TCP throughput differs by %.1f%%", diff*100)
	}
}

func TestDBRateFullOrdering(t *testing.T) {
	// Fig. 18c's full shape: sequential > fixed > random.
	fw := Harmonia()
	seq, _ := fw.DBRate(DefaultDBConfig(workload.Sequential))
	fixed, _ := fw.DBRate(DefaultDBConfig(workload.Fixed))
	rnd, _ := fw.DBRate(DefaultDBConfig(workload.Random))
	if !(seq > fixed && fixed > rnd) {
		t.Errorf("ordering seq(%.0f) > fixed(%.0f) > random(%.0f) violated", seq, fixed, rnd)
	}
	// Sequential engages both channels: about 2x fixed.
	if r := seq / fixed; r < 1.5 || r > 2.5 {
		t.Errorf("sequential/fixed = %.2f, want about 2 (channel striping)", r)
	}
}
