package ip

import (
	"testing"

	"harmonia/internal/hdl"
	"harmonia/internal/platform"
)

func TestSpecForMACWidthScaling(t *testing.T) {
	// §3.3.1: data width scales 128/512/2048 with 25/100/400G.
	tests := []struct {
		speed Speed
		width int
	}{
		{Speed25G, 128},
		{Speed100G, 512},
		{Speed400G, 2048},
	}
	for _, tt := range tests {
		spec, err := SpecForMAC(tt.speed)
		if err != nil {
			t.Fatalf("SpecForMAC(%d): %v", tt.speed, err)
		}
		if spec.DataWidth != tt.width {
			t.Errorf("%dG width = %d, want %d", tt.speed, spec.DataWidth, tt.width)
		}
		// The core datapath must sustain the line rate.
		coreGbps := float64(spec.DataWidth) * spec.CoreMHz / 1000
		if coreGbps < float64(tt.speed) {
			t.Errorf("%dG core rate %.1f Gbps below line rate", tt.speed, coreGbps)
		}
	}
	if _, err := SpecForMAC(Speed(10)); err == nil {
		t.Error("SpecForMAC(10) should fail")
	}
}

func TestSpecForDMA(t *testing.T) {
	g3, err := SpecForDMA(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	g4, _ := SpecForDMA(4, 16)
	g5, _ := SpecForDMA(5, 16)
	// Width×clock doubles per generation.
	r43 := float64(g4.DataWidth) * g4.CoreMHz / (float64(g3.DataWidth) * g3.CoreMHz)
	r54 := float64(g5.DataWidth) * g5.CoreMHz / (float64(g4.DataWidth) * g4.CoreMHz)
	if r43 != 2 || r54 != 2 {
		t.Errorf("generation scaling = %v, %v, want 2, 2", r43, r54)
	}
	// x8 halves the datapath.
	g4x8, _ := SpecForDMA(4, 8)
	if g4x8.DataWidth*2 != g4.DataWidth {
		t.Errorf("x8 width = %d, want half of %d", g4x8.DataWidth, g4.DataWidth)
	}
	if g3.QueueCount != 1024 {
		t.Errorf("QueueCount = %d, want 1024", g3.QueueCount)
	}
	if _, err := SpecForDMA(6, 16); err == nil {
		t.Error("SpecForDMA(6) should fail")
	}
	if _, err := SpecForDMA(4, 4); err == nil {
		t.Error("SpecForDMA(x4) should fail")
	}
}

func TestSpecForMem(t *testing.T) {
	ddr, err := SpecForMem(DDR4Mem)
	if err != nil {
		t.Fatal(err)
	}
	hbm, err := SpecForMem(HBMMem)
	if err != nil {
		t.Fatal(err)
	}
	if ddr.Channels != 2 || hbm.Channels != 32 {
		t.Errorf("channels = %d/%d, want 2/32", ddr.Channels, hbm.Channels)
	}
	if hbm.PeakGbps/ddr.PeakGbps < 10 {
		t.Error("HBM should be an order of magnitude faster than the DDR board")
	}
	if _, err := SpecForMem("flash"); err == nil {
		t.Error("SpecForMem(flash) should fail")
	}
}

func TestMACModuleVendorStyles(t *testing.T) {
	x, err := MACModule(platform.Xilinx, Speed100G)
	if err != nil {
		t.Fatal(err)
	}
	i, err := MACModule(platform.Intel, Speed100G)
	if err != nil {
		t.Fatal(err)
	}
	// Same functionality, disjoint interface conventions: the diff
	// should be tens of signals (Fig. 3b shape).
	d := hdl.InterfaceDiff(x, i)
	if d < 20 {
		t.Errorf("cross-vendor MAC interface diff = %d, want tens", d)
	}
	// Config inventories differ too.
	cd := hdl.ConfigDiff(x, i)
	if cd < 30 {
		t.Errorf("cross-vendor MAC config diff = %d, want tens", cd)
	}
	// Same vendor, same speed: no differences.
	x2, _ := MACModule(platform.Xilinx, Speed100G)
	if hdl.InterfaceDiff(x, x2) != 0 || hdl.ConfigDiff(x, x2) != 0 {
		t.Error("identical modules must not differ")
	}
}

func TestInHouseUsesAXIConvention(t *testing.T) {
	ih, err := MACModule(platform.InHouse, Speed100G)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := MACModule(platform.Xilinx, Speed100G)
	if d := hdl.InterfaceDiff(ih, x); d != 0 {
		t.Errorf("in-house vs xilinx interface diff = %d, want 0 (same convention)", d)
	}
}

func TestDMAModuleVariants(t *testing.T) {
	sg, err := DMAModule(platform.Xilinx, 4, 16, SGDMA)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := DMAModule(platform.Xilinx, 4, 16, BDMA)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Res.LUT >= sg.Res.LUT {
		t.Error("BDMA should be smaller than SGDMA")
	}
	if _, err := DMAModule(platform.Xilinx, 4, 16, "cdma"); err == nil {
		t.Error("unknown variant should fail")
	}
}

func TestMemModule(t *testing.T) {
	if _, err := MemModule(platform.Intel, HBMMem); err == nil {
		t.Error("Intel HBM controller should be absent from catalog")
	}
	ddr, err := MemModule(platform.Intel, DDR4Mem)
	if err != nil {
		t.Fatal(err)
	}
	if ddr.Category != "ddr4" {
		t.Errorf("category = %q", ddr.Category)
	}
	hbm, err := MemModule(platform.Xilinx, HBMMem)
	if err != nil {
		t.Fatal(err)
	}
	if hbm.Res.LUT <= ddr.Res.LUT {
		t.Error("HBM controller should be larger than DDR controller")
	}
}

func TestModuleParamBudget(t *testing.T) {
	// Native vendor modules expose tens-to-hundreds of configs while
	// only a handful are role-oriented — the Fig. 12 ratio source.
	mods := []func() (*hdl.Module, error){
		func() (*hdl.Module, error) { return MACModule(platform.Xilinx, Speed100G) },
		func() (*hdl.Module, error) { return DMAModule(platform.Intel, 4, 16, SGDMA) },
		func() (*hdl.Module, error) { return MemModule(platform.Xilinx, DDR4Mem) },
	}
	for _, mk := range mods {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		total := m.ParamCount()
		role := len(m.RoleParams())
		if total < 40 {
			t.Errorf("%s exposes %d params, want >= 40", m.Name, total)
		}
		if role == 0 || role > total/8 {
			t.Errorf("%s role params = %d of %d, want small non-zero subset", m.Name, role, total)
		}
	}
}

func TestVendorDeps(t *testing.T) {
	x, _ := MACModule(platform.Xilinx, Speed100G)
	i, _ := MACModule(platform.Intel, Speed100G)
	if x.Deps["cad"] != "vivado" || i.Deps["cad"] != "quartus" {
		t.Errorf("cad deps = %q/%q", x.Deps["cad"], i.Deps["cad"])
	}
	d, _ := DMAModule(platform.Intel, 5, 16, SGDMA)
	if d.Deps["pcie_hard_ip"] != "gen5" {
		t.Errorf("pcie_hard_ip = %q", d.Deps["pcie_hard_ip"])
	}
}

func TestCatalog(t *testing.T) {
	for _, v := range []platform.Vendor{platform.Xilinx, platform.Intel, platform.InHouse} {
		lib, err := Catalog(v)
		if err != nil {
			t.Fatalf("Catalog(%s): %v", v, err)
		}
		// 3 MACs + 3 gens × 2 lanes × (2 DMA variants + 1 PHY) + memories + TLP.
		wantMin := 3 + 18 + 2
		if v == platform.Intel {
			wantMin--
		}
		if lib.Len() < wantMin {
			t.Errorf("Catalog(%s) has %d modules, want >= %d", v, lib.Len(), wantMin)
		}
		macs := 0
		for _, name := range lib.Names() {
			m, err := lib.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if m.Category == "mac" {
				macs++
			}
			if m.Res.IsZero() {
				t.Errorf("%s has zero resources", name)
			}
			if m.Code.Total() == 0 {
				t.Errorf("%s has zero code volume", name)
			}
		}
		if macs != 3 {
			t.Errorf("Catalog(%s) MACs = %d, want 3", v, macs)
		}
	}
}

func TestTLPModule(t *testing.T) {
	x, err := TLPModule(platform.Xilinx)
	if err != nil {
		t.Fatal(err)
	}
	i, err := TLPModule(platform.Intel)
	if err != nil {
		t.Fatal(err)
	}
	if hdl.InterfaceDiff(x, i) == 0 {
		t.Error("cross-vendor TLP engines should differ")
	}
}

func TestPCIePhyModule(t *testing.T) {
	if _, err := PCIePhyModule(platform.Xilinx, 7, 16); err == nil {
		t.Error("bad generation should fail")
	}
	m, err := PCIePhyModule(platform.Intel, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.Category != "pcie-phy" {
		t.Errorf("category = %q", m.Category)
	}
}
