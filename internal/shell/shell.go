// Package shell implements Harmonia's unified shell abstraction and the
// hierarchical shell tailoring of §3.3.2. A shell assembles RBBs plus
// framework-owned base logic (board management and the unified control
// kernel) for a device; tailoring then removes non-essential RBBs at the
// module level, selects instances matching the role's data-transfer
// demands, and at the property level exposes only the role-oriented
// configuration items.
package shell

import (
	"fmt"
	"sort"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
)

// Component is one shell constituent: an RBB or a base block.
type Component struct {
	Name string
	// RBB is non-nil for building-block components.
	RBB *rbb.Desc
	// Res and Code describe base components (management, UCK); for RBB
	// components they are derived from the RBB itself.
	Res    hdl.Resources
	Code   hdl.LoC
	Params []hdl.Param
	// FmaxMHz is the base component's timing closure (RBB components
	// derive theirs from the RBB).
	FmaxMHz float64
}

// Resources reports the component footprint.
func (c Component) Resources() hdl.Resources {
	if c.RBB != nil {
		return c.RBB.TotalRes()
	}
	return c.Res
}

// LoC reports the component development volume.
func (c Component) LoC() hdl.LoC {
	if c.RBB != nil {
		return c.RBB.Code()
	}
	return c.Code
}

// AllParams reports the component's full configuration inventory.
func (c Component) AllParams() []hdl.Param {
	if c.RBB != nil {
		return c.RBB.Params()
	}
	return c.Params
}

// Fmax reports the component's achievable clock in MHz (0 = no
// constraint).
func (c Component) Fmax() float64 {
	if c.RBB != nil {
		return c.RBB.FmaxMHz()
	}
	return c.FmaxMHz
}

// managementComponent is the always-present board-management block:
// clocking, ICAP/flash for dynamic configuration, sensors and health
// monitoring — the FPGA-OS housekeeping of §2.1.
func managementComponent() Component {
	return Component{
		Name:    "management",
		FmaxMHz: 350,
		Res:     hdl.Resources{LUT: 52_000, REG: 64_000, BRAM: 48, URAM: 4},
		Code:    hdl.LoC{Handcraft: 9_500, Generated: 6_000},
		Params: []hdl.Param{
			{Name: "WATCHDOG_TIMEOUT", Default: "1s", Scope: hdl.ShellOriented},
			{Name: "SENSOR_POLL_MS", Default: "100", Scope: hdl.ShellOriented},
			{Name: "ICAP_ENABLE", Default: "1", Scope: hdl.ShellOriented},
			{Name: "FLASH_LAYOUT", Default: "dual", Scope: hdl.ShellOriented},
		},
	}
}

// uckComponent is the unified control kernel soft core (§3.3.3); its
// footprint stays under the paper's 0.67% bound on every device.
func uckComponent() Component {
	return Component{
		Name:    "uck",
		FmaxMHz: 320,
		Res:     hdl.Resources{LUT: 4_200, REG: 5_600, BRAM: 8},
		Code:    hdl.LoC{Handcraft: 3_200, Generated: 800},
		Params: []hdl.Param{
			{Name: "CMD_BUFFER_DEPTH", Default: "64", Scope: hdl.RoleOriented},
			{Name: "CMD_TIMEOUT_US", Default: "100", Scope: hdl.ShellOriented},
		},
	}
}

// Shell is an assembled (and possibly tailored) shell for a device.
type Shell struct {
	Device     *platform.Device
	Components []Component
	// Tailored reports whether hierarchical tailoring has been applied.
	Tailored bool
	// exposed is the property-level-tailored parameter set visible to
	// the role; nil until tailoring.
	exposed []hdl.Param
}

// macSpeedFor picks the MAC instance matching a cage rate.
func macSpeedFor(gbps float64) (ip.Speed, error) {
	switch {
	case gbps <= 25:
		return ip.Speed25G, nil
	case gbps <= 100:
		return ip.Speed100G, nil
	case gbps <= 400:
		return ip.Speed400G, nil
	default:
		return 0, fmt.Errorf("shell: no MAC instance for %v Gbps", gbps)
	}
}

// BuildUnified assembles the full one-size-fits-all shell for a device:
// every peripheral gets its RBB at the matching instance, plus the base
// components. This is the starting point tailoring trims.
func BuildUnified(dev *platform.Device) (*Shell, error) {
	if dev == nil {
		return nil, fmt.Errorf("shell: nil device")
	}
	s := &Shell{Device: dev}
	s.Components = append(s.Components, managementComponent(), uckComponent())

	for _, p := range dev.PeripheralsOf(platform.Network) {
		speed, err := macSpeedFor(p.GbpsPerUnit)
		if err != nil {
			return nil, err
		}
		d, err := rbb.NewNetworkDesc(dev.Vendor, speed)
		if err != nil {
			return nil, err
		}
		s.Components = append(s.Components, Component{
			Name: fmt.Sprintf("network-%s", p.Model), RBB: d,
		})
	}
	for _, p := range dev.PeripheralsOf(platform.Memory) {
		var kind ip.MemKind
		switch p.Model {
		case "HBM":
			kind = ip.HBMMem
		case "DDR4", "DDR3":
			kind = ip.DDR4Mem
		default:
			continue
		}
		d, err := rbb.NewMemoryDesc(dev.Vendor, kind)
		if err != nil {
			return nil, err
		}
		s.Components = append(s.Components, Component{
			Name: fmt.Sprintf("memory-%s", p.Model), RBB: d,
		})
	}
	if pcie, ok := dev.PCIe(); ok {
		d, err := rbb.NewHostDesc(dev.Vendor, pcie.PCIeGen, pcie.PCIeLanes, ip.SGDMA)
		if err != nil {
			return nil, err
		}
		s.Components = append(s.Components, Component{Name: "host-pcie", RBB: d})
	}
	return s, nil
}

// Resources reports the shell's total footprint.
func (s *Shell) Resources() hdl.Resources {
	var r hdl.Resources
	for _, c := range s.Components {
		r = r.Add(c.Resources())
	}
	return r
}

// Utilization reports per-resource-type occupancy fractions on the
// shell's device — the Fig. 11 y-axis.
func (s *Shell) Utilization() map[string]float64 {
	used := s.Resources()
	capacity := s.Device.Chip.Capacity
	out := make(map[string]float64, len(hdl.ResourceKinds))
	for _, kind := range hdl.ResourceKinds {
		u, _ := used.Get(kind)
		c, _ := capacity.Get(kind)
		if c > 0 {
			out[kind] = float64(u) / float64(c)
		}
	}
	return out
}

// MinFmaxMHz reports the tightest timing closure across components —
// the fastest clock a role may request from this shell.
func (s *Shell) MinFmaxMHz() float64 {
	min := 0.0
	for _, c := range s.Components {
		f := c.Fmax()
		if f <= 0 {
			continue
		}
		if min == 0 || f < min {
			min = f
		}
	}
	return min
}

// Code reports the shell's total development volume.
func (s *Shell) Code() hdl.LoC {
	var l hdl.LoC
	for _, c := range s.Components {
		l = l.Add(c.LoC())
	}
	return l
}

// NativeParamCount reports the configuration items the shell's native
// modules expose before property-level tailoring.
func (s *Shell) NativeParamCount() int {
	n := 0
	for _, c := range s.Components {
		n += len(c.AllParams())
	}
	return n
}

// ExposedParams returns the role-visible configuration set. Before
// tailoring this is the full native inventory; after tailoring only the
// role-oriented subset remains.
func (s *Shell) ExposedParams() []hdl.Param {
	if s.Tailored {
		return s.exposed
	}
	var all []hdl.Param
	for _, c := range s.Components {
		all = append(all, c.AllParams()...)
	}
	return all
}

// Component returns the named component.
func (s *Shell) Component(name string) (Component, bool) {
	for _, c := range s.Components {
		if c.Name == name {
			return c, true
		}
	}
	return Component{}, false
}

// ComponentNames lists components in sorted order.
func (s *Shell) ComponentNames() []string {
	names := make([]string, 0, len(s.Components))
	for _, c := range s.Components {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// HasRBB reports whether a component of the given RBB kind remains.
func (s *Shell) HasRBB(kind rbb.Kind) bool {
	for _, c := range s.Components {
		if c.RBB != nil && c.RBB.Kind == kind {
			return true
		}
	}
	return false
}
