package hostsw

import (
	"testing"

	"harmonia/internal/cmdif"
	"harmonia/internal/pcie"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/uck"
)

func TestCommandProcedureBudgets(t *testing.T) {
	// Table 4: 4 / 5 / 4 commands per task.
	want := map[Task]int{Monitoring: 4, NetworkInit: 5, HostConfig: 4}
	for task, n := range want {
		cmds, err := CommandProcedure(task)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmds) != n {
			t.Errorf("%s commands = %d, want %d", task, len(cmds), n)
		}
	}
	if _, err := CommandProcedure("bogus"); err == nil {
		t.Error("unknown task should fail")
	}
}

func TestTable4Simplification(t *testing.T) {
	// Commands simplify configuration by 15-23x.
	for _, task := range Tasks() {
		regs, cmds, err := ConfigCounts(task)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(regs) / float64(cmds)
		if ratio < 15 || ratio > 23 {
			t.Errorf("%s ratio = %.1fx, want 15-23x", task, ratio)
		}
	}
	if _, _, err := ConfigCounts("bogus"); err == nil {
		t.Error("unknown task should fail")
	}
}

func TestWaitStyleFollowsVendor(t *testing.T) {
	// Xilinx-convention devices use wait-style init; Intel devices use
	// direct writes (Fig. 3d's shell A vs shell B).
	xOps, _ := ModuleInitRegisters(platform.DeviceA(), "mac")
	iOps, _ := ModuleInitRegisters(platform.DeviceD(), "mac")
	countWaits := func(ops []uck.RegOp) int {
		n := 0
		for _, op := range ops {
			if op.Kind == uck.OpWait {
				n++
			}
		}
		return n
	}
	if countWaits(xOps) == 0 {
		t.Error("xilinx-style init should include waits")
	}
	if countWaits(iOps) != 0 {
		t.Error("intel-style init should not include waits")
	}
}

func TestDiffRegOps(t *testing.T) {
	a := []uck.RegOp{{Kind: uck.OpWrite, Addr: 0, Value: 1}, {Kind: uck.OpWrite, Addr: 4, Value: 2}}
	if DiffRegOps(a, a) != 0 {
		t.Error("self diff nonzero")
	}
	b := append([]uck.RegOp{}, a...)
	b[1].Value = 9
	// One op changed: one deletion + one insertion.
	if d := DiffRegOps(a, b); d != 2 {
		t.Errorf("single-change diff = %d, want 2", d)
	}
	if d := DiffRegOps(a, nil); d != 2 {
		t.Errorf("diff vs empty = %d, want 2", d)
	}
	if d := DiffRegOps(a, b); d != DiffRegOps(b, a) {
		t.Error("diff not symmetric")
	}
}

func TestMigrationCostCToD(t *testing.T) {
	// Fig. 13: migrating device C -> D costs hundreds of register mods
	// but only a handful of command mods; reduction 88-107x.
	cats := []string{"mac", "pcie-dma", "pcie-phy", "mgmt", "uck"}
	rep, err := MigrationCost(platform.DeviceC(), platform.DeviceD(), cats)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RegMods < 100 {
		t.Errorf("register modifications = %d, want hundreds", rep.RegMods)
	}
	if rep.CmdMods > 10 {
		t.Errorf("command modifications = %d, want a handful", rep.CmdMods)
	}
	if rep.Ratio < 50 || rep.Ratio > 200 {
		t.Errorf("reduction ratio = %.0fx, want order of 88-107x", rep.Ratio)
	}
	// Same-device migration costs nothing.
	same, err := MigrationCost(platform.DeviceC(), platform.DeviceC(), cats)
	if err != nil {
		t.Fatal(err)
	}
	if same.RegMods != 0 || same.CmdMods != 0 {
		t.Errorf("same-device migration = %+v", same)
	}
	if _, err := MigrationCost(nil, platform.DeviceC(), cats); err == nil {
		t.Error("nil device should fail")
	}
	if _, err := MigrationCost(platform.DeviceC(), platform.DeviceD(), []string{"bogus"}); err == nil {
		t.Error("unknown category should fail")
	}
}

func newCmdDriver(t testing.TB) (*CmdDriver, *uck.Module) {
	t.Helper()
	link, err := pcie.NewLink("l", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pcie.NewEngine(link, pcie.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := uck.NewKernel(64)
	if err != nil {
		t.Fatal(err)
	}
	m := uck.NewModule("mac0", []uck.RegOp{{Kind: uck.OpWrite, Addr: 4, Value: 1}})
	if err := kernel.Register(1, 0, m); err != nil {
		t.Fatal(err)
	}
	d, err := NewCmdDriver(engine, kernel)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestCmdDriverRoundTrip(t *testing.T) {
	d, m := newCmdDriver(t)
	var resp cmdif.Packet
	done, err := d.DoInto(0, cmdif.New(1, 0, cmdif.ModuleInit), &resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status() != uck.StatusReady {
		t.Error("module not initialized")
	}
	if done <= 0 {
		t.Error("command took no time")
	}
	if _, err := d.DoInto(done, cmdif.New(1, 0, cmdif.StatusRead), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != 1 || resp.Data[0] != uck.StatusReady {
		t.Errorf("status read = %v", resp.Data)
	}
	if d.Issued() != 2 {
		t.Errorf("Issued = %d", d.Issued())
	}
}

// statsDriver returns a driver whose module answers StatsRead with a
// fixed three-word payload, and that command.
func statsDriver(t testing.TB) (*CmdDriver, *cmdif.Packet) {
	d, m := newCmdDriver(t)
	stats := []uint32{45000, 850, 21000}
	m.SetStatsFn(func() []uint32 { return stats })
	return d, cmdif.New(1, 0, cmdif.StatsRead)
}

// TestCmdDriverRoundTripAllocs checks a steady-state StatsRead round
// trip allocates nothing: the driver reuses its wire buffer and parses
// into its own packet, and the kernel answers into the caller's
// response packet.
func TestCmdDriverRoundTripAllocs(t *testing.T) {
	d, cmd := statsDriver(t)
	var now sim.Time
	var resp cmdif.Packet
	do := func() {
		done, err := d.DoInto(now, cmd, &resp)
		if err != nil || len(resp.Data) != 3 {
			t.Fatalf("DoInto = %v, %v", resp, err)
		}
		now = done
	}
	do() // warm the buffers and the control queue
	if got := testing.AllocsPerRun(100, do); got != 0 {
		t.Errorf("StatsRead round trip allocates %.1f objects, want 0", got)
	}
}

// BenchmarkCmdRoundTrip measures one StatsRead command through the
// driver: marshal, control-queue transfer, parse, kernel execution and
// the response upload.
func BenchmarkCmdRoundTrip(b *testing.B) {
	d, cmd := statsDriver(b)
	var now sim.Time
	var resp cmdif.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		done, err := d.DoInto(now, cmd, &resp)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

func TestCmdDriverErrors(t *testing.T) {
	if _, err := NewCmdDriver(nil, nil); err == nil {
		t.Error("nil deps should fail")
	}
	d, _ := newCmdDriver(t)
	if _, err := d.DoInto(0, cmdif.New(9, 9, cmdif.ModuleInit), new(cmdif.Packet)); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestCmdDriverRetriesOnCorruption(t *testing.T) {
	d, m := newCmdDriver(t)
	// Corrupt the first transmission only: the retry succeeds.
	d.SetFaultInjector(func(attempt int, buf []byte) []byte {
		if attempt == 0 {
			buf[6] ^= 0x80
		}
		return buf
	})
	if _, err := d.DoInto(0, cmdif.New(1, 0, cmdif.ModuleInit), new(cmdif.Packet)); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if m.Status() != uck.StatusReady {
		t.Error("module not initialized after retry")
	}
	if d.Retries() != 1 {
		t.Errorf("Retries = %d, want 1", d.Retries())
	}
}

func TestCmdDriverGivesUpAfterMaxRetries(t *testing.T) {
	d, m := newCmdDriver(t)
	d.MaxRetries = 2
	d.SetFaultInjector(func(attempt int, buf []byte) []byte {
		buf[6] ^= 0x80 // persistent corruption
		return buf
	})
	if _, err := d.DoInto(0, cmdif.New(1, 0, cmdif.ModuleInit), new(cmdif.Packet)); err == nil {
		t.Fatal("persistently corrupted command succeeded")
	}
	if m.Status() == uck.StatusReady {
		t.Error("corrupted command executed")
	}
	if d.Retries() != 2 {
		t.Errorf("Retries = %d, want 2", d.Retries())
	}
}

func TestCmdDriverExecutesParsedBytes(t *testing.T) {
	// The kernel must act on what crossed the wire, not the host's
	// in-memory object: rewrite the wire payload to target instance 0's
	// table 9 instead of table 1 and observe the parsed effect.
	d, m := newCmdDriver(t)
	d.SetFaultInjector(func(attempt int, buf []byte) []byte {
		// Data word 0 (the table id) lives after the 3-word header.
		rewritten := cmdif.New(1, 0, cmdif.TableWrite, 9, 0, 0xFE)
		out, err := rewritten.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	if _, err := d.DoInto(0, cmdif.New(1, 0, cmdif.TableWrite, 1, 0, 0xFE), new(cmdif.Packet)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Table(1, 0); ok {
		t.Error("host-side object executed instead of wire bytes")
	}
	if entry, ok := m.Table(9, 0); !ok || entry[0] != 0xFE {
		t.Errorf("wire-rewritten table not applied: %v, %v", entry, ok)
	}
}

func TestCmdDriverCountsDrops(t *testing.T) {
	d, _ := newCmdDriver(t)
	d.MaxRetries = 1
	d.SetFaultInjector(func(attempt int, buf []byte) []byte {
		buf[6] ^= 0x80 // persistent corruption
		return buf
	})
	if _, err := d.DoInto(0, cmdif.New(1, 0, cmdif.ModuleInit), new(cmdif.Packet)); err == nil {
		t.Fatal("persistently corrupted command succeeded")
	}
	if d.Drops() != 1 {
		t.Errorf("Drops = %d, want 1", d.Drops())
	}
	// A recoverable corruption retries without dropping.
	d.SetFaultInjector(func(attempt int, buf []byte) []byte {
		if attempt == 0 {
			buf[6] ^= 0x80
		}
		return buf
	})
	if _, err := d.DoInto(0, cmdif.New(1, 0, cmdif.ModuleInit), new(cmdif.Packet)); err != nil {
		t.Fatal(err)
	}
	if d.Drops() != 1 {
		t.Errorf("Drops = %d after recovered retry, want still 1", d.Drops())
	}
}
