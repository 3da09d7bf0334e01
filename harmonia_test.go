package harmonia

import (
	"slices"
	"strings"
	"testing"

	"harmonia/internal/cmdif"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/uck"
)

func bitwDemands() Demands {
	return Demands{
		Network: &NetworkDemand{Gbps: 100, Filter: true},
		Host:    &HostDemand{Bulk: true, Queues: 16},
	}
}

func testRole(t *testing.T) *Role {
	t.Helper()
	r, err := NewRole("test-app", bitwDemands(), &LogicModule{
		Name: "test-logic",
		Res:  Resources{LUT: 40_000, REG: 60_000, BRAM: 80},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFrameworkDevices(t *testing.T) {
	fw := New()
	devs := fw.Devices()
	if len(devs) != 4 || devs[0] != "device-a" {
		t.Errorf("Devices() = %v", devs)
	}
	if _, err := fw.Device("device-b"); err != nil {
		t.Error(err)
	}
	if _, err := fw.Device("nope"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestRegisterCustomDevice(t *testing.T) {
	fw := New()
	custom := &platform.Device{
		Name: "custom-e", Vendor: platform.InHouse, Chip: platform.XCVU9P,
		Peripherals: []platform.Peripheral{platform.NewQSFP28(2), platform.NewPCIe(4, 16)},
	}
	if err := fw.RegisterDevice(custom); err != nil {
		t.Fatal(err)
	}
	if err := fw.RegisterDevice(custom); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := fw.RegisterDevice(nil); err == nil {
		t.Error("nil device should fail")
	}
	// The custom device deploys like any other.
	if _, err := fw.Deploy("custom-e", testRole(t)); err != nil {
		t.Errorf("deploy on custom device: %v", err)
	}
}

func TestDeployLifecycle(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	if dep.Bitstream() == "" {
		t.Error("no bitstream checksum")
	}
	if !dep.Shell().Tailored {
		t.Error("deployed shell not tailored")
	}
	dev := dep.Device()
	mods := dev.Modules()
	if len(mods) < 4 {
		t.Fatalf("only %d modules registered", len(mods))
	}
	var names []string
	for _, m := range mods {
		names = append(names, m.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"network", "host-pcie", "management", "uck", "test-app"} {
		if !strings.Contains(joined, want) {
			t.Errorf("modules %v missing %q", names, want)
		}
	}
}

func TestDeployPortabilityAcrossAllDevices(t *testing.T) {
	// The same role deploys on every catalog device without changes —
	// the portability headline.
	fw := New()
	for _, devName := range fw.Devices() {
		dep, err := fw.Deploy(devName, testRole(t))
		if err != nil {
			t.Errorf("deploy on %s: %v", devName, err)
			continue
		}
		if err := dep.Device().InitAll(); err != nil {
			t.Errorf("init on %s: %v", devName, err)
		}
	}
}

func TestDeviceCommandInterface(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()

	// Fresh modules report reset status.
	ready, err := dev.Ready(RBBNetwork, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ready {
		t.Error("uninitialized module reports ready")
	}
	// One init command brings the module up.
	if err := dev.Init(RBBNetwork, 0); err != nil {
		t.Fatal(err)
	}
	ready, _ = dev.Ready(RBBNetwork, 0)
	if !ready {
		t.Error("module not ready after init")
	}
	// Reset takes it back down.
	if err := dev.Reset(RBBNetwork, 0); err != nil {
		t.Fatal(err)
	}
	if s, _ := dev.Status(RBBNetwork, 0); s != uck.StatusReset {
		t.Errorf("status after reset = %d", s)
	}
	// Time advances with command activity.
	if dev.Uptime() <= 0 {
		t.Error("uptime not advancing")
	}
}

func TestDeviceTables(t *testing.T) {
	fw := New()
	dep, _ := fw.Deploy("device-a", testRole(t))
	dev := dep.Device()
	if err := dev.WriteTable(RBBNetwork, 0, 1, 42, 0xAB, 0xCD); err != nil {
		t.Fatal(err)
	}
	entry, err := dev.ReadTable(RBBNetwork, 0, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(entry) != 2 || entry[0] != 0xAB || entry[1] != 0xCD {
		t.Errorf("table entry = %v", entry)
	}
	if _, err := dev.ReadTable(RBBNetwork, 0, 1, 99); err == nil {
		t.Error("missing entry should fail")
	}
}

// TestDeviceDoResponseIsOwned checks that Do returns a packet its
// caller owns, and that ReadTable returns a slice its caller owns:
// later commands — other rows, a table source that reuses one buffer,
// and the typed operations that reuse the device's own packets — leave
// earlier results unchanged.
func TestDeviceDoResponseIsOwned(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	if err := dev.WriteTable(RBBNetwork, 0, 1, 1, 0xA1, 0xA2); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteTable(RBBNetwork, 0, 1, 2, 0xB1, 0xB2, 0xB3); err != nil {
		t.Fatal(err)
	}
	role, ok := dev.Kernel().Module(RBBRole, 0)
	if !ok {
		t.Fatal("no role module")
	}
	row := make([]uint32, 3)
	role.SetTableSource(7, func(index uint32) ([]uint32, bool) {
		for i := range row {
			row[i] = index
		}
		return row, true
	})
	stored, err := dev.Do(cmdif.New(RBBNetwork, 0, cmdif.TableRead, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sourced, err := dev.Do(cmdif.New(RBBRole, 0, cmdif.TableRead, 7, 5))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := dev.ReadTable(RBBRole, 0, 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Later commands through every path.
	if _, err := dev.Do(cmdif.New(RBBNetwork, 0, cmdif.TableRead, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ReadTable(RBBRole, 0, 7, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Status(RBBNetwork, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := dev.Sensors(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []uint32
	}{
		{"stored row", stored.Data, []uint32{0xA1, 0xA2}},
		{"sourced row", sourced.Data, []uint32{5, 5, 5}},
		{"ReadTable row", entry, []uint32{6, 6, 6}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s changed to %x after later commands, want %x", c.name, c.got, c.want)
		}
	}
	if stored.Code != cmdif.TableRead || stored.RBBID != RBBNetwork {
		t.Errorf("response header changed: %+v", stored)
	}
}

func TestDeviceStats(t *testing.T) {
	fw := New()
	dep, _ := fw.Deploy("device-a", testRole(t))
	dev := dep.Device()
	if _, err := dev.Stats(RBBNetwork, 0); err == nil {
		t.Error("stats without source should fail")
	}
	if err := dev.SetStatsSource(RBBNetwork, 0, func() []uint32 { return []uint32{7, 8} }); err != nil {
		t.Fatal(err)
	}
	stats, err := dev.Stats(RBBNetwork, 0)
	if err != nil || len(stats) != 2 || stats[1] != 8 {
		t.Errorf("stats = %v, %v", stats, err)
	}
	if err := dev.SetStatsSource(99, 0, nil); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestDeviceKernelExtension(t *testing.T) {
	fw := New()
	dep, _ := fw.Deploy("device-a", testRole(t))
	dev := dep.Device()
	const customCode cmdif.Code = 0x0200
	err := dev.Kernel().Extend(customCode, func(m *uck.Module, p *cmdif.Packet) ([]uint32, int, error) {
		return []uint32{0xBEEF}, 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dev.Do(cmdif.New(RBBUCK, 0, customCode))
	if err != nil || resp.Data[0] != 0xBEEF {
		t.Errorf("extended command: %v, %v", resp, err)
	}
}

func TestDeployRejectsImpossibleRole(t *testing.T) {
	fw := New()
	r, _ := NewRole("hbm-app", Demands{
		Memory: []MemoryDemand{{Kind: ip.HBMMem}},
	}, &LogicModule{Name: "l", Res: Resources{LUT: 1}})
	// device-c has no memory.
	if _, err := fw.Deploy("device-c", r); err == nil {
		t.Error("HBM role on device-c should fail")
	}
	if _, err := fw.Deploy("ghost", r); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestDeviceFlashAndTime(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	if err := dev.EraseFlash(5); err != nil {
		t.Fatal(err)
	}
	if err := dev.EraseFlash(999); err == nil {
		t.Error("out-of-range sector should fail")
	}
	// Device time advances with command activity and is readable via
	// the time-count command.
	before, err := dev.Time()
	if err != nil {
		t.Fatal(err)
	}
	dev.Status(RBBMgmt, 0)
	after, err := dev.Time()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("device time did not advance: %d -> %d", before, after)
	}
}

func TestDeviceSensors(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	temp, vccint, power, err := dev.Sensors()
	if err != nil {
		t.Fatal(err)
	}
	if temp < 40_000 || temp > 95_000 {
		t.Errorf("temperature %d milli-degC implausible", temp)
	}
	if vccint != 850 {
		t.Errorf("vccint = %d mV", vccint)
	}
	if power == 0 {
		t.Error("power reads zero")
	}
	// Telemetry flows through the same command interface as everything
	// else: the BMC-style reader needs no register knowledge.
	p := cmdif.New(RBBMgmt, 0, cmdif.StatsRead)
	p.SrcID = cmdif.SrcBMC
	resp, err := dev.Do(p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.DstID != cmdif.SrcBMC {
		t.Errorf("response routed to %d, want the BMC source", resp.DstID)
	}
}

func TestDeviceInterruptPath(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	var handled []Event
	dev.OnInterrupt(func(e Event) { handled = append(handled, e) })

	// A thermal alarm from the management block reaches the host
	// without any command traffic.
	if err := dev.RaiseEvent(RBBMgmt, 0, EventThermalAlarm, 95_000); err != nil {
		t.Fatal(err)
	}
	if err := dev.RaiseEvent(RBBNetwork, 0, EventLinkDown, 1); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 2 {
		t.Fatalf("handler saw %d events", len(handled))
	}
	if handled[0].Code != EventThermalAlarm || handled[0].Module != "management" {
		t.Errorf("first event = %+v", handled[0])
	}
	evs := dev.Events()
	if len(evs) != 2 || evs[1].Code != EventLinkDown {
		t.Errorf("ring = %+v", evs)
	}
	// Ring drains.
	if len(dev.Events()) != 0 {
		t.Error("event ring did not drain")
	}
	if err := dev.RaiseEvent(99, 0, EventLinkDown, 0); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestThermalWatchdog(t *testing.T) {
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	// Disarmed: no event.
	if _, err := dev.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if len(dev.Events()) != 0 {
		t.Error("disarmed watchdog raised an event")
	}
	// Armed below the current temperature: alarm on the irq path.
	temp, _, _, _ := dev.Sensors()
	dev.SetThermalThreshold(temp - 1000)
	got, err := dev.CheckHealth()
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Error("health check read no temperature")
	}
	evs := dev.Events()
	if len(evs) != 1 || evs[0].Code != EventThermalAlarm || evs[0].Module != "management" {
		t.Fatalf("events = %+v", evs)
	}
	// Armed far above: clean.
	dev.SetThermalThreshold(200_000)
	dev.CheckHealth()
	if len(dev.Events()) != 0 {
		t.Error("cool board raised a thermal alarm")
	}
}

func TestThermalWatchdogInjectedOvertemp(t *testing.T) {
	// An injected over-temperature reading (a cooling failure, not a
	// lowered threshold) must trip the watchdog during a routine health
	// check and reach the registered host handler over the irq path.
	fw := New()
	dep, err := fw.Deploy("device-a", testRole(t))
	if err != nil {
		t.Fatal(err)
	}
	dev := dep.Device()
	var handled []Event
	dev.OnInterrupt(func(e Event) { handled = append(handled, e) })

	const limit = 95_000 // 95 C, production throttling threshold
	dev.SetThermalThreshold(limit)
	if _, err := dev.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 0 {
		t.Fatalf("nominal board fired %d events", len(handled))
	}

	dev.SetThermalOffset(60_000) // hot spot: ~105 C die
	temp, err := dev.CheckHealth()
	if err != nil {
		t.Fatal(err)
	}
	if temp < limit {
		t.Fatalf("injected reading %d milli-degC below threshold %d", temp, limit)
	}
	if len(handled) != 1 {
		t.Fatalf("handler saw %d events, want 1 thermal alarm", len(handled))
	}
	ev := handled[0]
	if ev.Code != EventThermalAlarm || ev.Module != "management" {
		t.Errorf("event = %+v, want management thermal alarm", ev)
	}
	if ev.Data != temp {
		t.Errorf("alarm carries %d milli-degC, want the sampled %d", ev.Data, temp)
	}

	// Clearing the fault stops further alarms.
	dev.SetThermalOffset(0)
	if _, err := dev.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 1 {
		t.Error("nominal reading after fault clear still alarmed")
	}
}

func TestSelfTestPassesOnEveryDevice(t *testing.T) {
	fw := New()
	for _, devName := range fw.Devices() {
		dep, err := fw.Deploy(devName, testRole(t))
		if err != nil {
			t.Fatalf("%s: %v", devName, err)
		}
		results, ok := dep.SelfTest()
		if !ok {
			t.Errorf("%s self-test failed: %+v", devName, results)
		}
		if len(results) != 5 {
			t.Errorf("%s: %d checks, want 5", devName, len(results))
		}
		for _, r := range results {
			if r.Detail == "" {
				t.Errorf("%s check %s has no detail", devName, r.Check)
			}
		}
	}
}
