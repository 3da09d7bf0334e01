// Package device boots and runs the simulated FPGA instance: the
// tailored shell's modules registered with a unified control kernel,
// reachable from host software through the command-based interface
// over a simulated PCIe link. It also carries the board-health model
// (sensors, thermal watchdog) and the irq event path that
// latency-critical notifications take (§3.2).
//
// The root harmonia package re-exports these types; internal layers
// that sit above a running instance (the fleet control plane) import
// this package directly.
package device

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"harmonia/internal/cmdif"
	"harmonia/internal/hostsw"
	"harmonia/internal/obs"
	"harmonia/internal/pcie"
	"harmonia/internal/sim"
	"harmonia/internal/toolchain"
	"harmonia/internal/uck"
)

// RBB IDs used in command addressing.
const (
	RBBUCK     uint8 = 0
	RBBNetwork uint8 = 1
	RBBMemory  uint8 = 2
	RBBHost    uint8 = 3
	RBBMgmt    uint8 = 4
	RBBRole    uint8 = 5
)

// ModuleInfo describes one controllable module on a running device.
type ModuleInfo struct {
	RBBID      uint8
	InstanceID uint8
	Name       string
}

// Event is a latency-critical hardware notification delivered over the
// irq path (§3.2): thermal alarms, link state changes, parity errors.
// Events bypass the command interface entirely.
type Event struct {
	RBBID      uint8
	InstanceID uint8
	Module     string
	Code       uint32
	Data       uint32
	At         sim.Time
}

// Well-known event codes.
const (
	EventThermalAlarm uint32 = 0x01
	EventLinkDown     uint32 = 0x02
	EventParityError  uint32 = 0x03
)

// Device is a running simulated FPGA instance: the tailored shell's
// modules registered with a unified control kernel, reachable from host
// software through the command-based interface over a simulated PCIe
// link.
type Device struct {
	project *toolchain.Project
	kernel  *uck.Kernel
	driver  *hostsw.CmdDriver
	modules []ModuleInfo
	now     sim.Time
	// events is the host-visible interrupt ring; handler, if set, is
	// invoked on delivery.
	events  []Event
	handler func(Event)
	// irqLatency is the MSI-X delivery cost over PCIe.
	irqLatency sim.Time
	// thermalLimit arms the thermal watchdog (0 = disarmed).
	thermalLimit uint32
	// thermalOffset raises the sensed die temperature (milli-degC);
	// fault injection uses it to simulate cooling failures.
	thermalOffset uint32
	// cmd and resp are the command and response packets of the
	// device's own typed operations (Status, Sensors, ReadTable, ...),
	// and sensors the sampled telemetry the management module serves.
	// All are reused by the next command: those operations copy out
	// what they return, and Do answers into a new packet instead.
	cmd, resp cmdif.Packet
	sensors   [3]uint32
}

// rbbIDFor maps shell component names to RBB IDs.
func rbbIDFor(component string) uint8 {
	switch {
	case component == "uck":
		return RBBUCK
	case component == "management":
		return RBBMgmt
	case strings.HasPrefix(component, "network"):
		return RBBNetwork
	case strings.HasPrefix(component, "memory"):
		return RBBMemory
	case strings.HasPrefix(component, "host"):
		return RBBHost
	default:
		return RBBRole
	}
}

// Boot assembles a running instance from a compiled project.
func Boot(proj *toolchain.Project) (*Device, error) {
	pcieGen, pcieLanes := 4, 16
	if p, ok := proj.Device.PCIe(); ok {
		pcieGen, pcieLanes = p.PCIeGen, p.PCIeLanes
	}
	link, err := pcie.NewLink(proj.Device.Name+"-pcie", pcieGen, pcieLanes)
	if err != nil {
		return nil, err
	}
	engine, err := pcie.NewEngine(link, pcie.DefaultEngineConfig())
	if err != nil {
		return nil, err
	}
	kernel, err := uck.NewKernel(64)
	if err != nil {
		return nil, err
	}
	driver, err := hostsw.NewCmdDriver(engine, kernel)
	if err != nil {
		return nil, err
	}
	d := &Device{project: proj, kernel: kernel, driver: driver, irqLatency: link.Latency()}

	// Register one control module per shell component plus the role,
	// each with its platform-specific init choreography.
	instances := map[uint8]uint8{}
	register := func(component string, category string) error {
		rbbID := rbbIDFor(component)
		inst := instances[rbbID]
		instances[rbbID]++
		var initSeq []uck.RegOp
		if category != "" {
			initSeq, err = hostsw.ModuleInitRegisters(proj.Device, category)
			if err != nil {
				return err
			}
		}
		m := uck.NewModule(component, initSeq)
		if err := kernel.Register(rbbID, inst, m); err != nil {
			return err
		}
		// Wire the module's irq output into the host event ring.
		info := ModuleInfo{RBBID: rbbID, InstanceID: inst, Name: component}
		m.SetEventSink(func(code, data uint32) {
			d.deliverEvent(info, code, data)
		})
		d.modules = append(d.modules, info)
		return nil
	}
	names := proj.Shell.ComponentNames()
	sort.Strings(names)
	for _, name := range names {
		c, _ := proj.Shell.Component(name)
		category := ""
		switch {
		case name == "uck":
			category = "uck"
		case name == "management":
			category = "mgmt"
		case c.RBB != nil:
			category = categoryFor(name)
		}
		if err := register(name, category); err != nil {
			return nil, err
		}
	}
	if err := register(proj.Role.Name, ""); err != nil {
		return nil, err
	}
	// The management module carries the configuration flash (dual-image
	// bitstream storage) and the board health sensors.
	if mgmt, ok := kernel.Module(RBBMgmt, 0); ok {
		mgmt.EnableFlash(64)
		mgmt.SetStatsFn(d.readSensors)
	}
	return d, nil
}

// readSensors models the board telemetry the management block samples:
// die temperature (milli-degC), core voltage (mV) and power (mW),
// deterministic functions of activity so repeated reads are stable and
// testable.
func (d *Device) readSensors() []uint32 {
	// Temperature rises slightly with uptime activity, bounded well
	// below throttling levels; fault injection can add an offset.
	baseTemp := uint32(45_000) // 45 C
	activity := uint32(d.kernel.Executed() % 64)
	d.sensors = [3]uint32{
		baseTemp + activity*100 + d.thermalOffset, // temperature, milli-degC
		850,    // VCCINT, mV
		62_000, // board power, mW
	}
	return d.sensors[:]
}

// SetThermalThreshold arms the thermal watchdog: CheckHealth raises an
// EventThermalAlarm over the irq path when the die temperature meets or
// exceeds the threshold (milli-degC). Zero disarms it.
func (d *Device) SetThermalThreshold(milliC uint32) { d.thermalLimit = milliC }

// SetThermalOffset injects additional die temperature (milli-degC) into
// every subsequent sensor reading — a cooling failure or hot-spot fault
// for watchdog and failover testing. Zero restores nominal readings.
func (d *Device) SetThermalOffset(milliC uint32) { d.thermalOffset = milliC }

// SetWireFaultInjector installs a corruption hook on the command wire
// (every marshalled command passes through fn before the kernel parses
// it). Faults that corrupt all attempts make the device unreachable
// over the command path — the silent-death failure mode the fleet
// health monitor detects by missed heartbeats. Nil removes the hook.
func (d *Device) SetWireFaultInjector(fn func(attempt int, buf []byte) []byte) {
	d.driver.SetFaultInjector(fn)
}

// SetCmdTrace attaches (nil detaches) a trace track to the command
// driver; retried and dropped commands record spans on it.
func (d *Device) SetCmdTrace(b *obs.Buffer) { d.driver.SetTrace(b) }

// CmdStats reports the command-path delivery counters: commands
// completed, checksum-triggered retransmissions, and commands dropped
// after exhausting retries. The fleet health monitor surfaces these per
// node — retransmissions are the early signal of a corrupting wire
// before heartbeats are lost outright.
func (d *Device) CmdStats() (issued, retries, drops int64) {
	return d.driver.Issued(), d.driver.Retries(), d.driver.Drops()
}

// CheckHealth samples the board sensors (the management block's
// periodic health monitoring) and raises irq events for violations. It
// returns the sampled temperature.
func (d *Device) CheckHealth() (tempMilliC uint32, err error) {
	temp, _, _, err := d.Sensors()
	if err != nil {
		return 0, err
	}
	if d.thermalLimit > 0 && temp >= d.thermalLimit {
		if err := d.RaiseEvent(RBBMgmt, 0, EventThermalAlarm, temp); err != nil {
			return temp, err
		}
	}
	return temp, nil
}

// Sensors reads the board telemetry through the command interface:
// temperature (milli-degC), core voltage (mV), power (mW).
func (d *Device) Sensors() (temp, vccint, power uint32, err error) {
	resp, err := d.call(RBBMgmt, 0, cmdif.StatsRead)
	if err != nil {
		return 0, 0, 0, err
	}
	data := resp.Data
	if len(data) != 3 {
		return 0, 0, 0, fmt.Errorf("harmonia: malformed sensor response")
	}
	return data[0], data[1], data[2], nil
}

// deliverEvent records an irq-path notification, charging the MSI-X
// delivery latency, and invokes the registered handler.
func (d *Device) deliverEvent(info ModuleInfo, code, data uint32) {
	ev := Event{
		RBBID: info.RBBID, InstanceID: info.InstanceID, Module: info.Name,
		Code: code, Data: data, At: d.now + d.irqLatency,
	}
	d.events = append(d.events, ev)
	if d.handler != nil {
		d.handler(ev)
	}
}

// OnInterrupt registers a handler invoked synchronously on every
// irq-path event.
func (d *Device) OnInterrupt(fn func(Event)) { d.handler = fn }

// Events drains the pending event ring.
func (d *Device) Events() []Event {
	out := d.events
	d.events = nil
	return out
}

// RaiseEvent injects a hardware event on a module — models and tests
// use it to simulate alarms.
func (d *Device) RaiseEvent(rbbID, instanceID uint8, code, data uint32) error {
	m, ok := d.kernel.Module(rbbID, instanceID)
	if !ok {
		return fmt.Errorf("harmonia: no module at %d/%d", rbbID, instanceID)
	}
	m.RaiseEvent(code, data)
	return nil
}

// EraseFlash erases one sector of the management module's configuration
// flash.
func (d *Device) EraseFlash(sector uint32) error {
	_, err := d.call(RBBMgmt, 0, cmdif.FlashErase, sector)
	return err
}

// Time reads the device's time counter in nanoseconds.
func (d *Device) Time() (uint64, error) {
	resp, err := d.call(RBBUCK, 0, cmdif.TimeCount)
	if err != nil {
		return 0, err
	}
	if len(resp.Data) != 2 {
		return 0, fmt.Errorf("harmonia: malformed time-count response")
	}
	return uint64(resp.Data[0])<<32 | uint64(resp.Data[1]), nil
}

// categoryFor maps component names to hostsw module categories.
func categoryFor(component string) string {
	switch {
	case strings.HasPrefix(component, "network"):
		return "mac"
	case strings.HasPrefix(component, "memory-HBM"):
		return "hbm"
	case strings.HasPrefix(component, "memory"):
		return "ddr4"
	case strings.HasPrefix(component, "host"):
		return "pcie-dma"
	default:
		return "mgmt"
	}
}

// Modules lists the controllable modules.
func (d *Device) Modules() []ModuleInfo {
	return append([]ModuleInfo(nil), d.modules...)
}

// Uptime reports elapsed simulated time on the instance.
func (d *Device) Uptime() sim.Time { return d.now }

// Do issues a raw command packet and returns the response, a new
// packet the caller owns: later commands never change it.
func (d *Device) Do(p *cmdif.Packet) (*cmdif.Packet, error) {
	resp := new(cmdif.Packet)
	if err := d.exchange(p, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// call issues one command built in the device's own packet and returns
// the device's own response packet, both reused by the next command.
func (d *Device) call(rbbID, instanceID uint8, code cmdif.Code, args ...uint32) (*cmdif.Packet, error) {
	d.cmd = cmdif.Packet{
		Version: cmdif.Version, SrcID: cmdif.SrcApplication, DstID: cmdif.DstShell,
		RBBID: rbbID, InstanceID: instanceID, Code: code,
		Data: append(d.cmd.Data[:0], args...),
	}
	if err := d.exchange(&d.cmd, &d.resp); err != nil {
		return nil, err
	}
	return &d.resp, nil
}

// exchange runs one command round trip at the device's clock, which
// advances to the response's arrival even when the command fails.
func (d *Device) exchange(p, resp *cmdif.Packet) error {
	done, err := d.driver.DoInto(d.now, p, resp)
	if done > d.now {
		d.now = done
	}
	return err
}

// Init initializes a module: one command replaces the platform's whole
// register choreography.
func (d *Device) Init(rbbID, instanceID uint8) error {
	resp, err := d.call(rbbID, instanceID, cmdif.ModuleInit)
	if err != nil {
		return err
	}
	if len(resp.Data) != 1 || resp.Data[0] != uck.StatusReady {
		return fmt.Errorf("harmonia: module %d/%d not ready after init", rbbID, instanceID)
	}
	return nil
}

// InitAll initializes every module on the device.
func (d *Device) InitAll() error {
	for _, m := range d.modules {
		if err := d.Init(m.RBBID, m.InstanceID); err != nil {
			return fmt.Errorf("harmonia: init %s: %w", m.Name, err)
		}
	}
	return nil
}

// Status reads a module's status register.
func (d *Device) Status(rbbID, instanceID uint8) (uint32, error) {
	resp, err := d.call(rbbID, instanceID, cmdif.StatusRead)
	if err != nil {
		return 0, err
	}
	if len(resp.Data) != 1 {
		return 0, fmt.Errorf("harmonia: malformed status response")
	}
	return resp.Data[0], nil
}

// Ready reports whether a module's status is ready.
func (d *Device) Ready(rbbID, instanceID uint8) (bool, error) {
	s, err := d.Status(rbbID, instanceID)
	if err != nil {
		return false, err
	}
	return s == uck.StatusReady, nil
}

// Reset resets a module.
func (d *Device) Reset(rbbID, instanceID uint8) error {
	_, err := d.call(rbbID, instanceID, cmdif.ModuleReset)
	return err
}

// WriteTable programs a table entry on a module.
func (d *Device) WriteTable(rbbID, instanceID uint8, table, index uint32, entry ...uint32) error {
	_, err := d.call(rbbID, instanceID, cmdif.TableWrite, append([]uint32{table, index}, entry...)...)
	return err
}

// ReadTable reads a table entry back into a new slice.
func (d *Device) ReadTable(rbbID, instanceID uint8, table, index uint32) ([]uint32, error) {
	return d.AppendTableRow(nil, rbbID, instanceID, table, index)
}

// AppendTableRow is ReadTable appending the entry to dst: a reader
// that joins a multi-row table into one buffer reads without
// allocating. On error it returns dst unchanged.
func (d *Device) AppendTableRow(dst []uint32, rbbID, instanceID uint8, table, index uint32) ([]uint32, error) {
	resp, err := d.call(rbbID, instanceID, cmdif.TableRead, table, index)
	if err != nil {
		return dst, err
	}
	return append(dst, resp.Data...), nil
}

// Stats reads a module's monitoring statistics into a new slice.
// Modules expose stats via SetStatsSource.
func (d *Device) Stats(rbbID, instanceID uint8) ([]uint32, error) {
	resp, err := d.call(rbbID, instanceID, cmdif.StatsRead)
	if err != nil {
		return nil, err
	}
	return slices.Clone(resp.Data), nil
}

// SetStatsSource installs the monitoring callback for a module —
// applications wire their RBB counters here.
func (d *Device) SetStatsSource(rbbID, instanceID uint8, fn func() []uint32) error {
	m, ok := d.kernel.Module(rbbID, instanceID)
	if !ok {
		return fmt.Errorf("harmonia: no module at %d/%d", rbbID, instanceID)
	}
	m.SetStatsFn(fn)
	return nil
}

// Kernel exposes the control kernel for extension (new command codes,
// §3.3.3's extensibility hook).
func (d *Device) Kernel() *uck.Kernel { return d.kernel }
