// Package hostsw models the host-software side of FPGA control:
// per-platform register init sequences, Harmonia's command procedures
// and command-level driver, and the migration analysis that counts how
// much software must change when an application moves between FPGA
// platforms (§2.3, §5.2, Fig. 3d, Fig. 13, Table 4).
package hostsw

import (
	"fmt"
	"sort"
	"sync"

	"harmonia/internal/cmdif"
	"harmonia/internal/platform"
	"harmonia/internal/uck"
)

// Task names the three typical configuration activities Table 4
// analyzes.
type Task string

// Configuration tasks.
const (
	Monitoring  Task = "monitoring"       // statistics collection
	NetworkInit Task = "network-init"     // network module initialization
	HostConfig  Task = "host-interaction" // host interaction configuration
)

// Tasks lists the analyzed tasks in canonical order.
func Tasks() []Task { return []Task{Monitoring, NetworkInit, HostConfig} }

// registerBudget is Table 4's per-task register-operation count on the
// reference platform (84 / 115 / 60), calibrated to the paper.
var registerBudget = map[Task]int{
	Monitoring:  84,
	NetworkInit: 115,
	HostConfig:  60,
}

// vendorSalt perturbs addresses and sequences per vendor: different
// register maps, widths and operational dependencies (§2.3).
func vendorSalt(v platform.Vendor) uint32 {
	switch v {
	case platform.Intel:
		return 0x4000
	case platform.InHouse:
		return 0x2000
	default:
		return 0x0000
	}
}

// usesWaitStyle reports whether the platform's modules require
// wait-for-status initialization (shell A in Fig. 3d) rather than
// direct writes (shell B).
func usesWaitStyle(v platform.Vendor) bool { return v != platform.Intel }

// CommandProcedure generates the command sequence for a task. Commands
// are behavior-level and platform-independent: the sequence depends only
// on the task.
func CommandProcedure(task Task) ([]*cmdif.Packet, error) {
	switch task {
	case Monitoring:
		return []*cmdif.Packet{
			cmdif.New(1, 0, cmdif.StatsRead),
			cmdif.New(2, 0, cmdif.StatsRead),
			cmdif.New(3, 0, cmdif.StatsRead),
			cmdif.New(0, 0, cmdif.TimeCount),
		}, nil
	case NetworkInit:
		return []*cmdif.Packet{
			cmdif.New(1, 0, cmdif.ModuleReset),
			cmdif.New(1, 0, cmdif.ModuleInit),
			cmdif.New(1, 0, cmdif.TableWrite, 0, 0, 1),
			cmdif.New(1, 0, cmdif.StatusWrite, uck.StatusReady),
			cmdif.New(1, 0, cmdif.StatusRead),
		}, nil
	case HostConfig:
		return []*cmdif.Packet{
			cmdif.New(3, 0, cmdif.ModuleInit),
			cmdif.New(3, 0, cmdif.TableWrite, 1, 0, 64),
			cmdif.New(3, 0, cmdif.StatusWrite, uck.StatusReady),
			cmdif.New(3, 0, cmdif.StatusRead),
		}, nil
	default:
		return nil, fmt.Errorf("hostsw: unknown task %q", task)
	}
}

// moduleRegBudget is the per-module init-sequence length by category.
var moduleRegBudget = map[string]int{
	"mac":      52,
	"pcie-dma": 68,
	"pcie-phy": 34,
	"ddr4":     46,
	"hbm":      50,
	"mgmt":     24,
	"uck":      8,
}

// initSeqKey names one init sequence: the sequence depends only on the
// device's vendor and the module category.
type initSeqKey struct {
	vendor   platform.Vendor
	category string
}

// initSeqs memoises ModuleInitRegisters (initSeqKey → []uck.RegOp).
var initSeqs sync.Map

// ModuleInitRegisters returns the register-level init sequence for a
// module category on a device. Every device of one vendor shares the
// returned slice, so it is read-only.
func ModuleInitRegisters(dev *platform.Device, category string) ([]uck.RegOp, error) {
	k := initSeqKey{dev.Vendor, category}
	if ops, ok := initSeqs.Load(k); ok {
		return ops.([]uck.RegOp), nil
	}
	ops, err := buildModuleInitRegisters(dev.Vendor, category)
	if err != nil {
		return nil, err
	}
	shared, _ := initSeqs.LoadOrStore(k, ops)
	return shared.([]uck.RegOp), nil
}

func buildModuleInitRegisters(vendor platform.Vendor, category string) ([]uck.RegOp, error) {
	n, ok := moduleRegBudget[category]
	if !ok {
		return nil, fmt.Errorf("hostsw: unknown module category %q", category)
	}
	salt := vendorSalt(vendor) + uint32(len(category))*0x100
	wait := usesWaitStyle(vendor)
	ops := make([]uck.RegOp, 0, n)
	for i := 0; len(ops) < n; i++ {
		addr := salt + uint32(i)*4
		if wait && i%6 == 0 {
			ops = append(ops, uck.RegOp{Kind: uck.OpWait, Addr: addr, Value: 1})
		} else {
			ops = append(ops, uck.RegOp{Kind: uck.OpWrite, Addr: addr, Value: uint32(i) ^ salt})
		}
	}
	return ops[:n], nil
}

// DiffRegOps counts the modifications needed to turn sequence a into
// sequence b: insertions plus deletions under a longest-common-
// subsequence alignment, the way a developer's diff would count.
func DiffRegOps(a, b []uck.RegOp) int {
	la, lb := len(a), len(b)
	// dp[i][j] = LCS length of a[:i], b[:j].
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	lcs := prev[lb]
	return (la - lcs) + (lb - lcs)
}

// MigrationReport quantifies the software changes of moving an
// application between two devices.
type MigrationReport struct {
	From, To string
	// RegMods counts register-interface modifications; CmdMods counts
	// command-interface modifications; Ratio is their quotient.
	RegMods int
	CmdMods int
	Ratio   float64
}

// MigrationCost computes the modification counts for initializing the
// given module categories when moving from one device to another.
func MigrationCost(from, to *platform.Device, categories []string) (MigrationReport, error) {
	if from == nil || to == nil {
		return MigrationReport{}, fmt.Errorf("hostsw: nil device")
	}
	cats := append([]string(nil), categories...)
	sort.Strings(cats)
	regMods := 0
	for _, c := range cats {
		a, err := ModuleInitRegisters(from, c)
		if err != nil {
			return MigrationReport{}, err
		}
		b, err := ModuleInitRegisters(to, c)
		if err != nil {
			return MigrationReport{}, err
		}
		regMods += DiffRegOps(a, b)
	}
	// Command sequences are behavior-level and port almost unchanged:
	// the few edits left are the device-open path when the vendor
	// changes, the Options word when the physical interface changes,
	// and one line per peripheral-set difference.
	cmdMods := 0
	if from.Vendor != to.Vendor {
		cmdMods += 2
	}
	fp, fok := from.PCIe()
	tp, tok := to.PCIe()
	if fok != tok || (fok && (fp.PCIeGen != tp.PCIeGen || fp.PCIeLanes != tp.PCIeLanes)) {
		cmdMods++
	}
	for _, kind := range []platform.PeripheralKind{platform.Network, platform.Memory} {
		fm := map[string]bool{}
		for _, p := range from.PeripheralsOf(kind) {
			fm[p.Model] = true
		}
		tm := map[string]bool{}
		for _, p := range to.PeripheralsOf(kind) {
			tm[p.Model] = true
		}
		for m := range fm {
			if !tm[m] {
				cmdMods++
			}
		}
		for m := range tm {
			if !fm[m] {
				cmdMods++
			}
		}
	}
	rep := MigrationReport{From: from.Name, To: to.Name, RegMods: regMods, CmdMods: cmdMods}
	if cmdMods > 0 {
		rep.Ratio = float64(regMods) / float64(cmdMods)
	} else if regMods > 0 {
		rep.Ratio = float64(regMods)
	}
	return rep, nil
}

// ConfigCounts reports Table 4's register-vs-command configuration item
// counts for a task: the calibrated register budget, and the length of
// the task's command procedure.
func ConfigCounts(task Task) (registers, commands int, err error) {
	cmds, err := CommandProcedure(task)
	if err != nil {
		return 0, 0, err
	}
	return registerBudget[task], len(cmds), nil
}
