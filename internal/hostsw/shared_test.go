package hostsw_test

import (
	"sync"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/fleet"
	"harmonia/internal/hostsw"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/uck"
)

// TestSharedInitSequencesStayPristine checks that devices of one vendor
// share each category's init sequence, even when first asked for it
// concurrently, and that a co-resident fleet
// serving and then initialising every module leaves each memoised
// sequence equal to a fresh, unmemoised build.
func TestSharedInitSequencesStayPristine(t *testing.T) {
	// device-b and device-c are both in-house parts: concurrent first
	// calls for either get one slice.
	const callers = 8
	got := make([][]uck.RegOp, callers)
	var wg sync.WaitGroup
	for i := range got {
		dev := platform.DeviceB()
		if i%2 == 1 {
			dev = platform.DeviceC()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops, err := hostsw.ModuleInitRegisters(dev, "pcie-phy")
			if err != nil {
				t.Error(err)
			}
			got[i] = ops
		}(i)
	}
	wg.Wait()
	for i, ops := range got {
		if len(ops) == 0 || &ops[0] != &got[0][0] {
			t.Fatalf("caller %d did not get the shared in-house pcie-phy init sequence", i)
		}
	}

	lbInfo, err := apps.Lookup("layer4-lb")
	if err != nil {
		t.Fatal(err)
	}
	secInfo, err := apps.Lookup("sec-gateway")
	if err != nil {
		t.Fatal(err)
	}
	const devices = 6
	cfg := fleet.DefaultConfig()
	cl, err := fleet.BuildCoResidentCluster(cfg, []fleet.Service{
		fleet.AppService(lbInfo, devices, net.IPv4(20, 0, 0, 1)),
		fleet.AppService(secInfo, devices/2, net.IPv4(40, 0, 0, 1)),
	}, devices)
	if err != nil {
		t.Fatal(err)
	}
	cl.RunMonitorUntil(2 * cfg.ReconfigTime)
	lb, sec := fleet.DefaultTraffic("layer4-lb"), fleet.DefaultTraffic("sec-gateway")
	sec.Seed++
	if _, err := cl.ServeMulti(200*sim.Microsecond, []fleet.Traffic{lb, sec}); err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Nodes() {
		if err := n.Inst.InitAll(); err != nil {
			t.Fatalf("%s: %v", n.ID, err)
		}
	}

	checked, stale := hostsw.StaleInitSeqs()
	if checked == 0 {
		t.Fatal("no memoised init sequence to check")
	}
	for _, k := range stale {
		t.Errorf("memoised init sequence %s differs from a fresh build", k)
	}
}
