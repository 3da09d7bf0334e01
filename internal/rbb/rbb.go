// Package rbb implements Harmonia's Reusable Building Blocks (§3.3.1).
// An RBB couples a specific instance (a wrapped vendor IP chosen to
// match the role's performance demands) with reusable logic shared
// across all instances: Ex-functions (packet filter and flow director
// for networking, address interleaving and hot cache for memory,
// multi-queue isolation for the host), control logic, and monitoring.
//
// Each RBB is modelled both structurally (a composite hdl.Module used
// for resource, configuration and reuse accounting) and functionally
// (datapath objects that the applications and benchmarks actually push
// traffic through).
package rbb

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/sim"
)

// Kind identifies an RBB family.
type Kind string

// The RBB families evaluated in the paper.
const (
	NetworkKind Kind = "network"
	MemoryKind  Kind = "memory"
	HostKind    Kind = "host"
)

// ReusableFmaxMHz is the timing closure of the RBB reusable logic
// (Ex-functions, control, monitoring).
const ReusableFmaxMHz = 400

// ReusableLogic is the platform-independent portion of an RBB, broken
// into the sub-parts whose portability differs: Ex-functions carry over
// unchanged, while control and monitoring logic partially depend on
// hardware details (§5.3, Fig. 14 discussion).
type ReusableLogic struct {
	ExFunction hdl.LoC
	Control    hdl.LoC
	Monitoring hdl.LoC
	Res        hdl.Resources
	Params     []hdl.Param
}

// Total reports the combined code volume of the reusable logic.
func (r ReusableLogic) Total() hdl.LoC {
	return r.ExFunction.Add(r.Control).Add(r.Monitoring)
}

// Counters is the monitoring state every RBB maintains: real-time
// throughput, packet/transaction counts, drops and queue usage.
type Counters struct {
	Units int64 // packets, transactions or transfers
	Bytes int64
	Drops int64
}

// Record accumulates one unit of traffic.
func (c *Counters) Record(bytes int, dropped bool) {
	if dropped {
		c.Drops++
		return
	}
	c.Units++
	c.Bytes += int64(bytes)
}

// Gbps reports throughput over an elapsed window.
func (c *Counters) Gbps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) * 8 / elapsed.Nanoseconds()
}

// Mpps reports unit rate (millions per second) over an elapsed window.
func (c *Counters) Mpps(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Units) * 1e3 / elapsed.Nanoseconds()
}

// LossRate reports the dropped fraction.
func (c *Counters) LossRate() float64 {
	total := c.Units + c.Drops
	if total == 0 {
		return 0
	}
	return float64(c.Drops) / float64(total)
}

// MigrationScope classifies how far an RBB moves between platforms,
// which determines how much of its code carries over.
type MigrationScope int

// Migration scopes.
const (
	// SamePlatform: redeploying on the identical device.
	SamePlatform MigrationScope = iota
	// CrossChip: same vendor, different chip family (device A -> B).
	CrossChip
	// CrossVendor: different vendor toolchains (device A -> C/D).
	CrossVendor
)

// String names the scope.
func (s MigrationScope) String() string {
	switch s {
	case SamePlatform:
		return "same-platform"
	case CrossChip:
		return "cross-chip"
	case CrossVendor:
		return "cross-vendor"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// reuseWeights returns the fraction of each handcrafted component that
// carries over at a migration scope: Ex-functions port unchanged;
// control and monitoring logic partially depend on hardware details;
// instance glue is the least portable.
func reuseWeights(s MigrationScope) (exfn, control, monitoring, glue float64) {
	switch s {
	case SamePlatform:
		return 1, 1, 1, 1
	case CrossChip:
		return 1, 0.75, 0.82, 0.68
	default: // CrossVendor
		return 1, 0.45, 0.55, 0.30
	}
}

// ReuseReport quantifies development reuse when migrating an RBB.
type ReuseReport struct {
	Kind       Kind
	Scope      MigrationScope
	TotalLoC   int // handcrafted lines in the RBB
	ReusedLoC  int
	RedevLoC   int
	ReuseRate  float64
	RedevParts string
}

// Reuse computes the reuse report for migrating this RBB description at
// the given scope. Only handcrafted code counts: script-generated
// portions are regenerated by the platform adapters for free (§2.3).
func (d *Desc) Reuse(scope MigrationScope) ReuseReport {
	exW, ctlW, monW, glueW := reuseWeights(scope)
	exfn := d.Reusable.ExFunction.Handcraft
	ctl := d.Reusable.Control.Handcraft
	mon := d.Reusable.Monitoring.Handcraft
	glue := d.InstanceGlue.Handcraft

	total := exfn + ctl + mon + glue
	reused := int(float64(exfn)*exW + float64(ctl)*ctlW + float64(mon)*monW + float64(glue)*glueW)
	rep := ReuseReport{
		Kind:       d.Kind,
		Scope:      scope,
		TotalLoC:   total,
		ReusedLoC:  reused,
		RedevLoC:   total - reused,
		RedevParts: "control+monitoring+instance glue",
	}
	if total > 0 {
		rep.ReuseRate = float64(reused) / float64(total)
	}
	return rep
}

// Desc is the structural description of an RBB: the wrapped specific
// instance plus the reusable logic, with instance glue separated out for
// reuse accounting. Descs from the New*Desc constructors are shared
// across devices and read-only.
type Desc struct {
	Kind Kind
	// Instance is the wrapped vendor IP module.
	Instance *hdl.Module
	// WrapOverhead is the interface wrapper's resource cost.
	WrapOverhead hdl.Resources
	// InstanceGlue is the handcrafted integration code around the
	// instance (clocking, reset sequencing, calibration hooks).
	InstanceGlue hdl.LoC
	// Reusable is the RBB's shared logic.
	Reusable ReusableLogic
}

// Module renders the RBB as one composite structural module for shell
// assembly: instance resources + wrapper + reusable logic, vendor
// "harmonia" at the composite level, with the instance's deployment
// dependencies carried through.
func (d *Desc) Module() *hdl.Module {
	return &hdl.Module{
		Name:     fmt.Sprintf("rbb-%s(%s)", d.Kind, d.Instance.Name),
		Vendor:   "harmonia",
		Category: string(d.Kind),
		Ports:    d.Instance.Ports,
		Params:   d.Params(),
		Res:      d.TotalRes(),
		Code:     d.Code(),
		Deps:     d.Instance.Deps,
		FmaxMHz:  d.FmaxMHz(),
	}
}

// TotalRes reports the RBB's full resource footprint.
func (d *Desc) TotalRes() hdl.Resources {
	return d.Instance.Res.Add(d.Reusable.Res)
}

// Params returns a fresh copy of the RBB's configuration inventory:
// the instance's parameters, then the reusable logic's.
func (d *Desc) Params() []hdl.Param {
	return append(append([]hdl.Param(nil), d.Instance.Params...), d.Reusable.Params...)
}

// Code reports the RBB's full development volume: the instance, its
// glue and the reusable logic.
func (d *Desc) Code() hdl.LoC {
	return d.Instance.Code.Add(d.Reusable.Total()).Add(d.InstanceGlue)
}

// FmaxMHz reports the RBB's timing closure: the instance's, capped by
// the reusable logic's (an instance without one takes the cap).
func (d *Desc) FmaxMHz() float64 {
	fmax := d.Instance.FmaxMHz
	if fmax == 0 || fmax > ReusableFmaxMHz {
		fmax = ReusableFmaxMHz
	}
	return fmax
}
