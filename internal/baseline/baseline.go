// Package baseline models the comparison frameworks of §5.4 — the
// commercial Vitis and oneAPI platforms and the open-source Coyote
// shell — at the level the paper compares them on: device support
// (Table 3), monolithic shell resource profiles (Fig. 18a), host
// interface style (Table 4) and benchmark performance (Figs. 18b-d).
package baseline

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/platform"
	"harmonia/internal/shell"
	"harmonia/internal/sim"
)

// Framework is a platform-level FPGA framework under comparison.
type Framework struct {
	name string
	// supports decides device compatibility (Table 3).
	supports func(d *platform.Device) bool
	// shellScale sizes the framework's monolithic shell relative to
	// the full unified component set on a device. Baselines cannot
	// tailor per role; Harmonia reports tailored shells instead (see
	// ShellResources).
	shellScale float64
	// tailors reports whether the framework performs per-role shell
	// tailoring.
	tailors bool
	// regInterface reports a register-level host interface (vs
	// command-based).
	regInterface bool
	// invokeOverhead is the per-kernel-invocation host overhead.
	invokeOverhead sim.Time
}

// Name reports the framework name.
func (f *Framework) Name() string { return f.name }

// Supports reports whether the framework can target the device.
func (f *Framework) Supports(d *platform.Device) bool { return f.supports(d) }

// UsesRegisterInterface reports the host-interface style.
func (f *Framework) UsesRegisterInterface() bool { return f.regInterface }

// Tailors reports whether the framework generates role-specific shells.
func (f *Framework) Tailors() bool { return f.tailors }

// ShellResources reports the framework's shell footprint on a device
// for a workload with the given demands. Monolithic frameworks ship
// their full shell regardless of demands; Harmonia tailors.
func (f *Framework) ShellResources(dev *platform.Device, demands shell.Demands) (hdl.Resources, error) {
	if !f.Supports(dev) {
		return hdl.Resources{}, fmt.Errorf("baseline: %s does not support %s", f.name, dev.Name)
	}
	unified, err := shell.BuildUnified(dev)
	if err != nil {
		return hdl.Resources{}, err
	}
	if !f.tailors {
		return unified.Resources().Scale(f.shellScale), nil
	}
	tailored, err := unified.Tailor(demands)
	if err != nil {
		return hdl.Resources{}, err
	}
	return tailored.Resources(), nil
}

// Vitis models the AMD/Xilinx Vitis platform: Xilinx devices only
// (Alveo/Zynq/Versal), register interface, monolithic shell.
func Vitis() *Framework {
	return &Framework{
		name:           "vitis",
		supports:       func(d *platform.Device) bool { return d.Vendor == platform.Xilinx },
		shellScale:     0.97,
		regInterface:   true,
		invokeOverhead: 1200 * sim.Nanosecond,
	}
}

// OneAPI models the Intel oneAPI/OFS stack: Intel devices only,
// register interface, monolithic shell.
func OneAPI() *Framework {
	return &Framework{
		name:           "oneapi",
		supports:       func(d *platform.Device) bool { return d.Vendor == platform.Intel },
		shellScale:     1.00,
		regInterface:   true,
		invokeOverhead: 1400 * sim.Nanosecond,
	}
}

// Coyote models the ETH Coyote FPGA OS: Xilinx Alveo-class devices,
// register interface, monolithic (but leaner) shell.
func Coyote() *Framework {
	return &Framework{
		name:           "coyote",
		supports:       func(d *platform.Device) bool { return d.Vendor == platform.Xilinx },
		shellScale:     0.92,
		regInterface:   true,
		invokeOverhead: 1000 * sim.Nanosecond,
	}
}

// Harmonia models this paper's framework for comparison: cross-vendor
// (including in-house devices), command interface, tailored shells.
func Harmonia() *Framework {
	return &Framework{
		name:           "harmonia",
		supports:       func(d *platform.Device) bool { return true },
		shellScale:     1.0,
		tailors:        true,
		regInterface:   false,
		invokeOverhead: 1100 * sim.Nanosecond,
	}
}

// All returns the compared frameworks in the paper's order.
func All() []*Framework {
	return []*Framework{Vitis(), OneAPI(), Coyote(), Harmonia()}
}
