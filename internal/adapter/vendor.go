package adapter

import (
	"fmt"
	"sort"
	"strings"

	"harmonia/internal/hdl"
	"harmonia/internal/platform"
)

// VendorAdapter structures the deployment environment of a device as
// key-value dependency pairs and performs the rigid compatibility
// inspection of §3.2: every dependency a module declares must be
// satisfiable by the device's vendor toolchain and hard IP.
type VendorAdapter struct {
	device *platform.Device
	// env maps dependency keys to the set of values this deployment
	// environment provides.
	env map[string]map[string]bool
}

// NewVendorAdapter derives the deployment environment from the device:
// CAD tool and version from the vendor, hard-IP availability from the
// peripherals.
func NewVendorAdapter(d *platform.Device) (*VendorAdapter, error) {
	if d == nil {
		return nil, fmt.Errorf("adapter: nil device")
	}
	env := map[string]map[string]bool{}
	set := func(key string, values ...string) {
		if env[key] == nil {
			env[key] = map[string]bool{}
		}
		for _, v := range values {
			env[key][v] = true
		}
	}
	if d.Vendor == platform.Intel {
		set("cad", "quartus")
		set("cad_version", "23.4")
		set("ip_catalog", "intel-fpga-ip")
	} else {
		set("cad", "vivado")
		set("cad_version", "2023.2")
		set("ip_catalog", "xilinx-ip")
	}
	// PCIe hard IP supports the device's generation and below.
	if pcie, ok := d.PCIe(); ok {
		for g := 3; g <= pcie.PCIeGen; g++ {
			set("pcie_hard_ip", fmt.Sprintf("gen%d", g))
		}
	}
	// Memory PHYs per populated peripherals.
	for _, p := range d.PeripheralsOf(platform.Memory) {
		switch p.Model {
		case "DDR4":
			set("memory_phy", "ddr4")
		case "DDR3":
			set("memory_phy", "ddr3")
		case "HBM":
			set("memory_phy", "hbm")
		}
	}
	// Transceiver tiles by vendor and the fastest populated cage.
	maxGbps := 0.0
	for _, p := range d.PeripheralsOf(platform.Network) {
		if p.GbpsPerUnit > maxGbps {
			maxGbps = p.GbpsPerUnit
		}
	}
	if maxGbps > 0 {
		if d.Vendor == platform.Intel {
			set("transceiver", "e-tile")
			if maxGbps >= 400 {
				set("transceiver", "f-tile")
			}
		} else {
			set("transceiver", "gty")
			if maxGbps >= 400 {
				set("transceiver", "gty-dcmac")
			}
		}
	}
	return &VendorAdapter{device: d, env: env}, nil
}

// DependencyError describes one unsatisfied module dependency.
type DependencyError struct {
	Module string
	Key    string
	Want   string
	Have   []string
}

// Error formats the mismatch.
func (e *DependencyError) Error() string {
	if len(e.Have) == 0 {
		return fmt.Sprintf("adapter: module %s requires %s=%s, environment does not provide %s",
			e.Module, e.Key, e.Want, e.Key)
	}
	return fmt.Sprintf("adapter: module %s requires %s=%s, environment provides %v",
		e.Module, e.Key, e.Want, e.Have)
}

// Check inspects one module's dependencies against the environment and
// returns every violation (nil when compatible).
func (a *VendorAdapter) Check(m *hdl.Module) []error {
	var errs []error
	keys := make([]string, 0, len(m.Deps))
	for k := range m.Deps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want := m.Deps[k]
		if a.env[k][want] {
			continue
		}
		have := make([]string, 0, len(a.env[k]))
		for v := range a.env[k] {
			have = append(have, v)
		}
		sort.Strings(have)
		errs = append(errs, &DependencyError{Module: m.Name, Key: k, Want: want, Have: have})
	}
	return errs
}

// CheckAll inspects a set of modules and returns all violations.
func (a *VendorAdapter) CheckAll(mods []*hdl.Module) []error {
	var errs []error
	for _, m := range mods {
		errs = append(errs, a.Check(m)...)
	}
	return errs
}

// Script renders the environment as the dependency manifest the
// integration toolchain loads before compilation.
func (a *VendorAdapter) Script() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# vendor adapter: %s (%s)\n", a.device.Name, a.device.Vendor)
	keys := make([]string, 0, len(a.env))
	for k := range a.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := make([]string, 0, len(a.env[k]))
		for v := range a.env[k] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		fmt.Fprintf(&b, "provide %s = %s\n", k, strings.Join(vals, ","))
	}
	return b.String()
}
