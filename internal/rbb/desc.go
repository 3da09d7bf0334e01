package rbb

import (
	"sync"

	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/wrapper"
)

// Structural Desc constructors. These build the composite description
// (wrapped vendor instance + reusable logic) without instantiating the
// functional datapath — the form the shell builder consumes when it
// assembles and tailors shells.
//
// A Desc is a pure function of its constructor's arguments, so each
// constructor returns one memoised *Desc per argument tuple: every shell
// and every functional RBB of one device model shares it. A returned
// Desc, its Instance module and everything they reference are
// read-only: nothing in the tree writes to them, and a caller that
// needs a variant must copy first (hdl.Module.Clone for the Instance).

// descs memoises the constructors below. Each constructor keys it with
// its own struct type, so keys never collide.
var descs sync.Map

type networkKey struct {
	vendor platform.Vendor
	speed  ip.Speed
}

type memoryKey struct {
	vendor platform.Vendor
	kind   ip.MemKind
}

type hostKey struct {
	vendor     platform.Vendor
	gen, lanes int
	variant    ip.DMAVariant
}

// sharedDesc returns the Desc memoised under k, building it on first
// use. Errors are not memoised.
func sharedDesc(k any, build func() (*Desc, error)) (*Desc, error) {
	if d, ok := descs.Load(k); ok {
		return d.(*Desc), nil
	}
	d, err := build()
	if err != nil {
		return nil, err
	}
	shared, _ := descs.LoadOrStore(k, d)
	return shared.(*Desc), nil
}

// NewNetworkDesc returns the shared Network RBB description for a
// vendor MAC at the given line rate.
func NewNetworkDesc(vendor platform.Vendor, speed ip.Speed) (*Desc, error) {
	return sharedDesc(networkKey{vendor, speed}, func() (*Desc, error) {
		return buildNetworkDesc(vendor, speed)
	})
}

// NewMemoryDesc returns the shared Memory RBB description for a vendor
// memory controller.
func NewMemoryDesc(vendor platform.Vendor, kind ip.MemKind) (*Desc, error) {
	return sharedDesc(memoryKey{vendor, kind}, func() (*Desc, error) {
		return buildMemoryDesc(vendor, kind)
	})
}

// NewHostDesc returns the shared Host RBB description for a vendor DMA
// engine.
func NewHostDesc(vendor platform.Vendor, gen, lanes int, variant ip.DMAVariant) (*Desc, error) {
	return sharedDesc(hostKey{vendor, gen, lanes, variant}, func() (*Desc, error) {
		return buildHostDesc(vendor, gen, lanes, variant)
	})
}

func buildNetworkDesc(vendor platform.Vendor, speed ip.Speed) (*Desc, error) {
	mod, err := ip.MACModule(vendor, speed)
	if err != nil {
		return nil, err
	}
	wrapped, overhead, err := wrapper.Wrap(mod)
	if err != nil {
		return nil, err
	}
	return networkDesc(wrapped, overhead), nil
}

func buildMemoryDesc(vendor platform.Vendor, kind ip.MemKind) (*Desc, error) {
	mod, err := ip.MemModule(vendor, kind)
	if err != nil {
		return nil, err
	}
	wrapped, overhead, err := wrapper.Wrap(mod)
	if err != nil {
		return nil, err
	}
	return memoryDesc(wrapped, overhead), nil
}

func buildHostDesc(vendor platform.Vendor, gen, lanes int, variant ip.DMAVariant) (*Desc, error) {
	mod, err := ip.DMAModule(vendor, gen, lanes, variant)
	if err != nil {
		return nil, err
	}
	wrapped, overhead, err := wrapper.Wrap(mod)
	if err != nil {
		return nil, err
	}
	return hostDesc(wrapped, overhead), nil
}
