// Package adapter implements Harmonia's automated platform adapters
// (§3.2): the device adapter managing hardware-resource configurations
// (the static inherent properties of each device) and
// the vendor adapter managing deployment differences (CAD tools, IP
// catalogs, hard-IP availability) as key-value dependency pairs with
// rigid compatibility inspection.
package adapter

import (
	"fmt"
	"sort"
	"strings"

	"harmonia/internal/platform"
)

// StaticConfig holds the inherent resource properties of a device —
// configured once from the device description and reused anywhere.
type StaticConfig struct {
	// ChannelCounts maps peripheral models to instance counts.
	ChannelCounts map[string]int
	// VirtualFunctions is the SR-IOV VF budget.
	VirtualFunctions int
}

// DeviceAdapter manages resource-related configuration for one device.
type DeviceAdapter struct {
	device *platform.Device
	static StaticConfig
}

// NewDeviceAdapter derives the static configuration from the device
// description (the part vendor scripts generate).
func NewDeviceAdapter(d *platform.Device) (*DeviceAdapter, error) {
	if d == nil {
		return nil, fmt.Errorf("adapter: nil device")
	}
	st := StaticConfig{
		ChannelCounts:    map[string]int{},
		VirtualFunctions: 16,
	}
	for _, p := range d.Peripherals {
		st.ChannelCounts[p.Model] += p.Count
	}
	return &DeviceAdapter{device: d, static: st}, nil
}

// Script renders the adapter as the tcl-style configuration the vendor
// toolchain consumes — the artifact the paper generates from vendor tcl
// and ruby scripts.
func (a *DeviceAdapter) Script() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# device adapter: %s (%s %s)\n", a.device.Name, a.device.Vendor, a.device.Chip.Name)
	models := make([]string, 0, len(a.static.ChannelCounts))
	for m := range a.static.ChannelCounts {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		fmt.Fprintf(&b, "set_property CHANNELS.%s %d [current_design]\n", m, a.static.ChannelCounts[m])
	}
	fmt.Fprintf(&b, "set_property SRIOV_VFS %d [current_design]\n", a.static.VirtualFunctions)
	return b.String()
}
