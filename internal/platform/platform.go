// Package platform models heterogeneous FPGA platforms: vendors, chip
// families, peripherals (network cages, memory, PCIe), complete devices,
// and the datacenter fleet. The catalog includes the four production
// devices the paper evaluates (Table 2) plus the additional chip
// families §3.3.1 lists as supported.
//
// Chip capacities follow the public datasheets where available and are
// otherwise representative; every evaluated metric depends on parameter
// relationships (which device has HBM, which PCIe generation, relative
// capacity), not on exact silicon counts.
package platform

import (
	"fmt"
	"sort"

	"harmonia/internal/hdl"
)

// Vendor identifies an FPGA supplier.
type Vendor string

// Vendors appearing in the paper's fleet.
const (
	Xilinx  Vendor = "xilinx"
	Intel   Vendor = "intel"
	InHouse Vendor = "inhouse" // internally customized devices
)

// ChipFamily describes an FPGA die family.
type ChipFamily struct {
	Name      string
	Vendor    Vendor
	ProcessNM int
	Capacity  hdl.Resources
}

// Chip families supported by Harmonia (§3.3.1).
var (
	XCVU3P = ChipFamily{Name: "XCVU3P", Vendor: Xilinx, ProcessNM: 16,
		Capacity: hdl.Resources{LUT: 394_080, REG: 788_160, BRAM: 720, URAM: 320, DSP: 2_280}}
	XCVU9P = ChipFamily{Name: "XCVU9P", Vendor: Xilinx, ProcessNM: 16,
		Capacity: hdl.Resources{LUT: 1_182_240, REG: 2_364_480, BRAM: 2_160, URAM: 960, DSP: 6_840}}
	XCVU23P = ChipFamily{Name: "XCVU23P", Vendor: Xilinx, ProcessNM: 16,
		Capacity: hdl.Resources{LUT: 1_027_320, REG: 2_054_640, BRAM: 2_112, URAM: 128, DSP: 1_320}}
	XCVU35P = ChipFamily{Name: "XCVU35P", Vendor: Xilinx, ProcessNM: 16,
		Capacity: hdl.Resources{LUT: 872_160, REG: 1_744_320, BRAM: 1_344, URAM: 640, DSP: 5_952}}
	XCVU125 = ChipFamily{Name: "XCVU125", Vendor: Xilinx, ProcessNM: 20,
		Capacity: hdl.Resources{LUT: 716_160, REG: 1_432_320, BRAM: 2_520, URAM: 0, DSP: 1_200}}
	Zynq7000 = ChipFamily{Name: "Zynq7000", Vendor: Xilinx, ProcessNM: 28,
		Capacity: hdl.Resources{LUT: 277_400, REG: 554_800, BRAM: 755, URAM: 0, DSP: 2_020}}
	Agilex5 = ChipFamily{Name: "Agilex5", Vendor: Intel, ProcessNM: 10,
		Capacity: hdl.Resources{LUT: 656_000, REG: 1_312_000, BRAM: 2_103, URAM: 0, DSP: 1_640}}
	Agilex7 = ChipFamily{Name: "Agilex7", Vendor: Intel, ProcessNM: 10,
		Capacity: hdl.Resources{LUT: 912_800, REG: 1_825_600, BRAM: 4_510, URAM: 0, DSP: 4_510}}
	Stratix10 = ChipFamily{Name: "Stratix10", Vendor: Intel, ProcessNM: 14,
		Capacity: hdl.Resources{LUT: 933_120, REG: 1_866_240, BRAM: 3_732, URAM: 0, DSP: 5_760}}
	Arria10 = ChipFamily{Name: "Arria10", Vendor: Intel, ProcessNM: 20,
		Capacity: hdl.Resources{LUT: 427_200, REG: 854_400, BRAM: 2_713, URAM: 0, DSP: 1_518}}
)

// Families lists every supported chip family.
func Families() []ChipFamily {
	return []ChipFamily{
		XCVU3P, XCVU9P, XCVU23P, XCVU35P, XCVU125, Zynq7000,
		Agilex5, Agilex7, Stratix10, Arria10,
	}
}

// PeripheralKind classifies an off-chip peripheral.
type PeripheralKind string

// Peripheral kinds.
const (
	Network PeripheralKind = "network"
	Memory  PeripheralKind = "memory"
	Host    PeripheralKind = "host"
)

// Peripheral describes one off-chip resource attached to a device.
type Peripheral struct {
	Kind PeripheralKind
	// Model names the part: "QSFP28", "QSFP56", "QSFP112", "DSFP",
	// "DDR3", "DDR4", "HBM", "PCIe".
	Model string
	// Count is how many instances the card carries (ports, channels
	// for DDR-style parts; HBM counts as one stack with 32 pseudo-
	// channels handled by the memory model).
	Count int
	// GbpsPerUnit is the per-instance data rate in gigabits/second.
	GbpsPerUnit float64
	// PCIeGen and PCIeLanes are set for host peripherals.
	PCIeGen   int
	PCIeLanes int
}

// TotalGbps reports the aggregate data rate of the peripheral.
func (p Peripheral) TotalGbps() float64 { return float64(p.Count) * p.GbpsPerUnit }

// Network cage constructors. Per-port rates follow the deployed optics:
// QSFP28 100G, DSFP 100G.

// NewQSFP28 returns n QSFP28 (100G) cages.
func NewQSFP28(n int) Peripheral {
	return Peripheral{Kind: Network, Model: "QSFP28", Count: n, GbpsPerUnit: 100}
}

// NewDSFP returns n DSFP (100G) cages.
func NewDSFP(n int) Peripheral {
	return Peripheral{Kind: Network, Model: "DSFP", Count: n, GbpsPerUnit: 100}
}

// Memory constructors. Rates follow the paper: one DDR4 channel delivers
// 19.2 GB/s (153.6 Gbps); an HBM stack delivers 460 GB/s (3680 Gbps)
// across 32 channels.

// NewDDR4 returns n DDR4 channels.
func NewDDR4(n int) Peripheral {
	return Peripheral{Kind: Memory, Model: "DDR4", Count: n, GbpsPerUnit: 153.6}
}

// NewHBM returns an HBM stack.
func NewHBM() Peripheral {
	return Peripheral{Kind: Memory, Model: "HBM", Count: 1, GbpsPerUnit: 3680}
}

// NewPCIe returns a PCIe host connection of the given generation and
// lane count. Effective per-lane rates (after encoding overhead):
// Gen3 ~7.88 Gbps, Gen4 ~15.75 Gbps, Gen5 ~31.5 Gbps.
func NewPCIe(gen, lanes int) Peripheral {
	perLane := map[int]float64{3: 7.88, 4: 15.75, 5: 31.51}[gen]
	if perLane == 0 {
		panic(fmt.Sprintf("platform: unsupported PCIe generation %d", gen))
	}
	return Peripheral{
		Kind: Host, Model: "PCIe", Count: lanes, GbpsPerUnit: perLane,
		PCIeGen: gen, PCIeLanes: lanes,
	}
}

// Device is a complete FPGA card: a chip plus its peripherals.
type Device struct {
	Name        string
	Vendor      Vendor
	Chip        ChipFamily
	Peripherals []Peripheral
}

// Peripheral returns the device's first peripheral of the given kind
// and, if model is non-empty, matching model.
func (d *Device) Peripheral(kind PeripheralKind, model string) (Peripheral, bool) {
	for _, p := range d.Peripherals {
		if p.Kind == kind && (model == "" || p.Model == model) {
			return p, true
		}
	}
	return Peripheral{}, false
}

// PeripheralsOf returns all peripherals of a kind.
func (d *Device) PeripheralsOf(kind PeripheralKind) []Peripheral {
	var out []Peripheral
	for _, p := range d.Peripherals {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

// HasPeripheral reports whether the device carries the given model.
func (d *Device) HasPeripheral(model string) bool {
	for _, p := range d.Peripherals {
		if p.Model == model {
			return true
		}
	}
	return false
}

// NetworkGbps reports the device's aggregate network bandwidth.
func (d *Device) NetworkGbps() float64 {
	var g float64
	for _, p := range d.PeripheralsOf(Network) {
		g += p.TotalGbps()
	}
	return g
}

// MemoryGbps reports the device's aggregate memory bandwidth.
func (d *Device) MemoryGbps() float64 {
	var g float64
	for _, p := range d.PeripheralsOf(Memory) {
		g += p.TotalGbps()
	}
	return g
}

// HostGbps reports the device's PCIe bandwidth.
func (d *Device) HostGbps() float64 {
	var g float64
	for _, p := range d.PeripheralsOf(Host) {
		g += p.TotalGbps()
	}
	return g
}

// PCIe returns the device's host connection.
func (d *Device) PCIe() (Peripheral, bool) { return d.Peripheral(Host, "PCIe") }

// The paper's evaluation devices (Table 2).

// DeviceA: Xilinx XCVU35P — HBM, DDR, QSFP×2, PCIe Gen4×8.
func DeviceA() *Device {
	return &Device{
		Name: "device-a", Vendor: Xilinx, Chip: XCVU35P,
		Peripherals: []Peripheral{NewHBM(), NewDDR4(1), NewQSFP28(2), NewPCIe(4, 8)},
	}
}

// DeviceB: in-house XCVU9P — DDR×2, QSFP×2, PCIe Gen3×16.
func DeviceB() *Device {
	return &Device{
		Name: "device-b", Vendor: InHouse, Chip: XCVU9P,
		Peripherals: []Peripheral{NewDDR4(2), NewQSFP28(2), NewPCIe(3, 16)},
	}
}

// DeviceC: in-house Agilex 7 — DSFP×2, PCIe Gen4×16.
func DeviceC() *Device {
	return &Device{
		Name: "device-c", Vendor: InHouse, Chip: Agilex7,
		Peripherals: []Peripheral{NewDSFP(2), NewPCIe(4, 16)},
	}
}

// DeviceD: Intel Agilex 7 — QSFP×2, PCIe Gen4×16, DDR.
func DeviceD() *Device {
	return &Device{
		Name: "device-d", Vendor: Intel, Chip: Agilex7,
		Peripherals: []Peripheral{NewQSFP28(2), NewPCIe(4, 16), NewDDR4(1)},
	}
}

// Catalog returns the four evaluation devices keyed by name.
func Catalog() map[string]*Device {
	out := make(map[string]*Device, 4)
	for _, d := range []*Device{DeviceA(), DeviceB(), DeviceC(), DeviceD()} {
		out[d.Name] = d
	}
	return out
}

// CatalogNames returns the evaluation device names in order A..D.
func CatalogNames() []string {
	names := make([]string, 0, 4)
	for n := range Catalog() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named catalog device.
func Lookup(name string) (*Device, error) {
	d, ok := Catalog()[name]
	if !ok {
		return nil, fmt.Errorf("platform: unknown device %q", name)
	}
	return d, nil
}
