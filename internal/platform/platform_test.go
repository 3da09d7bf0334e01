package platform

import "testing"

func TestCatalogDevices(t *testing.T) {
	cat := Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog has %d devices, want 4", len(cat))
	}
	tests := []struct {
		name    string
		vendor  Vendor
		chip    string
		pcieGen int
		lanes   int
		hasHBM  bool
		hasDDR  bool
	}{
		{"device-a", Xilinx, "XCVU35P", 4, 8, true, true},
		{"device-b", InHouse, "XCVU9P", 3, 16, false, true},
		{"device-c", InHouse, "Agilex7", 4, 16, false, false},
		{"device-d", Intel, "Agilex7", 4, 16, false, true},
	}
	for _, tt := range tests {
		d, ok := cat[tt.name]
		if !ok {
			t.Errorf("device %q missing", tt.name)
			continue
		}
		if d.Vendor != tt.vendor {
			t.Errorf("%s vendor = %q, want %q", tt.name, d.Vendor, tt.vendor)
		}
		if d.Chip.Name != tt.chip {
			t.Errorf("%s chip = %q, want %q", tt.name, d.Chip.Name, tt.chip)
		}
		pcie, ok := d.PCIe()
		if !ok {
			t.Errorf("%s has no PCIe", tt.name)
			continue
		}
		if pcie.PCIeGen != tt.pcieGen || pcie.PCIeLanes != tt.lanes {
			t.Errorf("%s PCIe = Gen%dx%d, want Gen%dx%d",
				tt.name, pcie.PCIeGen, pcie.PCIeLanes, tt.pcieGen, tt.lanes)
		}
		if d.HasPeripheral("HBM") != tt.hasHBM {
			t.Errorf("%s HBM = %v, want %v", tt.name, d.HasPeripheral("HBM"), tt.hasHBM)
		}
		if d.HasPeripheral("DDR4") != tt.hasDDR {
			t.Errorf("%s DDR4 = %v, want %v", tt.name, d.HasPeripheral("DDR4"), tt.hasDDR)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("device-a"); err != nil {
		t.Errorf("Lookup(device-a): %v", err)
	}
	if _, err := Lookup("device-z"); err == nil {
		t.Error("Lookup(device-z) should fail")
	}
	names := CatalogNames()
	if len(names) != 4 || names[0] != "device-a" || names[3] != "device-d" {
		t.Errorf("CatalogNames = %v", names)
	}
}

func TestBandwidthAggregation(t *testing.T) {
	a := DeviceA()
	// 2 × QSFP28 = 200 Gbps network.
	if got := a.NetworkGbps(); got != 200 {
		t.Errorf("device-a network = %v Gbps, want 200", got)
	}
	// HBM (3680) + 1 DDR4 channel (153.6).
	if got := a.MemoryGbps(); got != 3680+153.6 {
		t.Errorf("device-a memory = %v Gbps", got)
	}
	// Gen4 x8 = 8 × 15.75.
	if got := a.HostGbps(); got != 8*15.75 {
		t.Errorf("device-a host = %v Gbps", got)
	}
}

func TestPCIeGenerationScaling(t *testing.T) {
	// Host bandwidth roughly doubles per generation at fixed lanes.
	g3 := NewPCIe(3, 16).TotalGbps()
	g4 := NewPCIe(4, 16).TotalGbps()
	g5 := NewPCIe(5, 16).TotalGbps()
	if !(g3 < g4 && g4 < g5) {
		t.Errorf("PCIe bandwidth not increasing: %v %v %v", g3, g4, g5)
	}
	if r := g4 / g3; r < 1.9 || r > 2.1 {
		t.Errorf("Gen4/Gen3 ratio = %v, want about 2", r)
	}
	if r := g5 / g4; r < 1.9 || r > 2.1 {
		t.Errorf("Gen5/Gen4 ratio = %v, want about 2", r)
	}
}

func TestNewPCIePanicsOnBadGen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPCIe(2, 8) did not panic")
		}
	}()
	NewPCIe(2, 8)
}

func TestHBMFasterThanDDR(t *testing.T) {
	// Paper: 460 GB/s HBM vs 19.2 GB/s per DDR channel.
	hbm := NewHBM().TotalGbps()
	ddr := NewDDR4(1).TotalGbps()
	if hbm/ddr < 20 {
		t.Errorf("HBM/DDR ratio = %v, want > 20", hbm/ddr)
	}
}

func TestFamilies(t *testing.T) {
	fams := Families()
	if len(fams) != 10 {
		t.Errorf("Families() = %d, want 10", len(fams))
	}
	seen := map[Vendor]int{}
	for _, f := range fams {
		if f.Capacity.LUT <= 0 || f.ProcessNM <= 0 {
			t.Errorf("family %s has invalid parameters", f.Name)
		}
		seen[f.Vendor]++
	}
	if seen[Xilinx] == 0 || seen[Intel] == 0 {
		t.Error("families must span both commercial vendors")
	}
}

func TestPeripheralQueries(t *testing.T) {
	d := DeviceB()
	if _, ok := d.Peripheral(Memory, "HBM"); ok {
		t.Error("device-b should not have HBM")
	}
	ddr, ok := d.Peripheral(Memory, "DDR4")
	if !ok || ddr.Count != 2 {
		t.Errorf("device-b DDR4 = %+v, %v, want 2 channels", ddr, ok)
	}
	if got := len(d.PeripheralsOf(Network)); got != 1 {
		t.Errorf("device-b network peripherals = %d, want 1", got)
	}
	if _, ok := d.Peripheral(Network, ""); !ok {
		t.Error("kind-only peripheral lookup failed")
	}
}

func TestFleetHistoryShape(t *testing.T) {
	hist := FleetHistory()
	if len(hist) != 5 || hist[0].Year != 2020 || hist[4].Year != 2024 {
		t.Fatalf("history years wrong: %+v", hist)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].TotalFPGAs <= hist[i-1].TotalFPGAs {
			t.Errorf("total fleet not growing at %d", hist[i].Year)
		}
		if hist[i].NewDevices < hist[i-1].NewDevices {
			t.Errorf("new-device variety shrinking at %d", hist[i].Year)
		}
	}
	if hist[4].TotalFPGAs < 10_000 {
		t.Error("2024 fleet should be tens of thousands")
	}
}
