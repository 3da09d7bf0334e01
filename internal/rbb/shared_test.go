package rbb_test

import (
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/fleet"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/shell"
	"harmonia/internal/sim"
)

// TestSharedDescsStayPristine checks that every node of one device
// model shares its host, network and shell descriptors, and that a
// warm-up serve on a co-resident fleet leaves each memoised Desc equal
// to a fresh, unmemoised build. Every fleet service needs DDR or HBM,
// so device-c (no memory) cannot join the fleet; the unified shell of
// every catalog model puts its Descs in the memo as well.
func TestSharedDescsStayPristine(t *testing.T) {
	for _, name := range platform.CatalogNames() {
		dev, err := platform.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shell.BuildUnified(dev); err != nil {
			t.Fatal(err)
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
	const devices = 8
	cfg := fleet.DefaultConfig()
	c, err := fleet.BuildCoResidentCluster(cfg, []fleet.Service{
		fleet.AppService(lbInfo, devices, net.IPv4(20, 0, 0, 1)),
		fleet.AppService(secInfo, devices/2, net.IPv4(40, 0, 0, 1)),
	}, devices)
	if err != nil {
		t.Fatal(err)
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	lb, sec := fleet.DefaultTraffic("layer4-lb"), fleet.DefaultTraffic("sec-gateway")
	sec.Seed++
	if _, err := c.ServeMulti(200*sim.Microsecond, []fleet.Traffic{lb, sec}); err != nil {
		t.Fatal(err)
	}

	first := map[string]*fleet.Node{}
	for _, n := range c.Nodes() {
		f, seen := first[n.Platform.Name]
		if !seen {
			first[n.Platform.Name] = n
			continue
		}
		if rbb.HostDesc(n.Host) != rbb.HostDesc(f.Host) || rbb.NetDesc(n.Net) != rbb.NetDesc(f.Net) {
			t.Errorf("%s and %s (%s) do not share their host and network Descs", f.ID, n.ID, n.Platform.Name)
		}
		a, b := f.Project.Shell.Components, n.Project.Shell.Components
		if len(a) != len(b) {
			t.Fatalf("%s and %s (%s) have different shells", f.ID, n.ID, n.Platform.Name)
		}
		for i := range a {
			if a[i].RBB != b[i].RBB {
				t.Errorf("%s and %s (%s) do not share shell component %q's Desc", f.ID, n.ID, n.Platform.Name, a[i].Name)
			}
		}
	}
	if len(first) != len(platform.CatalogNames())-1 {
		t.Fatalf("fleet covers %d catalog models, want all but device-c", len(first))
	}
	checked, stale := rbb.StaleDescs()
	if checked == 0 {
		t.Fatal("no memoised Desc to check")
	}
	for _, k := range stale {
		t.Errorf("memoised Desc %s differs from a fresh build", k)
	}
}
