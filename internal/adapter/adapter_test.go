package adapter

import (
	"strings"
	"testing"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
)

func TestNewDeviceAdapterStaticConfig(t *testing.T) {
	a, err := NewDeviceAdapter(platform.DeviceA())
	if err != nil {
		t.Fatal(err)
	}
	st := a.static
	if st.ChannelCounts["QSFP28"] != 2 {
		t.Errorf("QSFP28 channels = %d, want 2", st.ChannelCounts["QSFP28"])
	}
	if st.ChannelCounts["HBM"] != 1 {
		t.Errorf("HBM = %d, want 1", st.ChannelCounts["HBM"])
	}
	if _, err := NewDeviceAdapter(nil); err == nil {
		t.Error("nil device should fail")
	}
}

func TestDeviceAdapterScript(t *testing.T) {
	a, _ := NewDeviceAdapter(platform.DeviceA())
	s := a.Script()
	for _, want := range []string{"device-a", "CHANNELS.QSFP28 2", "SRIOV_VFS 16"} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q:\n%s", want, s)
		}
	}
}

func TestVendorAdapterEnvironment(t *testing.T) {
	a, err := NewVendorAdapter(platform.DeviceA())
	if err != nil {
		t.Fatal(err)
	}
	if !a.env["cad"]["vivado"] {
		t.Error("device-a should provide vivado")
	}
	if a.env["cad"]["quartus"] {
		t.Error("device-a should not provide quartus")
	}
	// Gen4 device supports gen3 and gen4 hard IP, not gen5.
	if !a.env["pcie_hard_ip"]["gen3"] || !a.env["pcie_hard_ip"]["gen4"] {
		t.Error("gen3/gen4 hard IP should be available")
	}
	if a.env["pcie_hard_ip"]["gen5"] {
		t.Error("gen5 hard IP should not be available on a Gen4 device")
	}
	if !a.env["memory_phy"]["hbm"] || !a.env["memory_phy"]["ddr4"] {
		t.Error("device-a memory PHYs missing")
	}
	d, _ := NewVendorAdapter(platform.DeviceD())
	if !d.env["cad"]["quartus"] || !d.env["transceiver"]["e-tile"] {
		t.Error("device-d environment wrong")
	}
	if _, err := NewVendorAdapter(nil); err == nil {
		t.Error("nil device should fail")
	}
}

func TestVendorAdapterCheckCompatible(t *testing.T) {
	a, _ := NewVendorAdapter(platform.DeviceA())
	mac, err := ip.MACModule(platform.Xilinx, ip.Speed100G)
	if err != nil {
		t.Fatal(err)
	}
	if errs := a.Check(mac); len(errs) != 0 {
		t.Errorf("xilinx 100G MAC should be compatible with device-a: %v", errs)
	}
	dma, _ := ip.DMAModule(platform.Xilinx, 4, 8, ip.SGDMA)
	if errs := a.Check(dma); len(errs) != 0 {
		t.Errorf("gen4 DMA should be compatible: %v", errs)
	}
}

func TestVendorAdapterCatchesIncompatibilities(t *testing.T) {
	a, _ := NewVendorAdapter(platform.DeviceA())
	// Intel IP on a Xilinx device: wrong CAD tool and catalog.
	intelMAC, _ := ip.MACModule(platform.Intel, ip.Speed100G)
	errs := a.Check(intelMAC)
	if len(errs) < 2 {
		t.Errorf("intel MAC on device-a: %d violations, want >= 2 (%v)", len(errs), errs)
	}
	// Gen5 DMA on a Gen4 device.
	g5, _ := ip.DMAModule(platform.Xilinx, 5, 16, ip.SGDMA)
	errs = a.Check(g5)
	found := false
	for _, e := range errs {
		de, ok := e.(*DependencyError)
		if ok && de.Key == "pcie_hard_ip" {
			found = true
			if !strings.Contains(de.Error(), "gen5") {
				t.Errorf("error lacks detail: %v", de)
			}
		}
	}
	if !found {
		t.Errorf("gen5-on-gen4 violation not caught: %v", errs)
	}
	// HBM controller on a device without HBM.
	b, _ := NewVendorAdapter(platform.DeviceB())
	hbm, _ := ip.MemModule(platform.Xilinx, ip.HBMMem)
	if errs := b.Check(hbm); len(errs) == 0 {
		t.Error("HBM controller on device-b should be rejected")
	}
	// 400G MAC on a 100G-cage device.
	mac400, _ := ip.MACModule(platform.Xilinx, ip.Speed400G)
	if errs := a.Check(mac400); len(errs) == 0 {
		t.Error("400G MAC on QSFP28 device should be rejected")
	}
}

func TestCheckAllAggregates(t *testing.T) {
	a, _ := NewVendorAdapter(platform.DeviceA())
	good, _ := ip.MACModule(platform.Xilinx, ip.Speed100G)
	bad, _ := ip.MACModule(platform.Intel, ip.Speed100G)
	errs := a.CheckAll([]*hdl.Module{good, bad})
	if len(errs) == 0 {
		t.Error("CheckAll should report the incompatible module")
	}
	if len(a.CheckAll([]*hdl.Module{good})) != 0 {
		t.Error("CheckAll on a compatible set should be clean")
	}
}

func TestVendorAdapterScript(t *testing.T) {
	a, _ := NewVendorAdapter(platform.DeviceC())
	s := a.Script()
	for _, want := range []string{"device-c", "provide cad = vivado", "pcie_hard_ip"} {
		if !strings.Contains(s, want) {
			t.Errorf("script missing %q:\n%s", want, s)
		}
	}
}

func TestMissingKeyErrorMessage(t *testing.T) {
	e := &DependencyError{Module: "m", Key: "k", Want: "v"}
	if !strings.Contains(e.Error(), "does not provide") {
		t.Errorf("missing-key error = %q", e.Error())
	}
}
