// Package pcie provides the simulated PCIe transport between host
// software and the FPGA: a serializing link with per-generation
// bandwidth and TLP overhead, multi-queue DMA with active-queue
// scheduling (the Host RBB's Ex-function, §3.3.1), and a dedicated
// control queue isolated from the data path (§3.3.3).
package pcie

import (
	"fmt"

	"harmonia/internal/sim"
)

// TLP framing constants.
const (
	// TLPHeaderBytes is the charged per-TLP header+framing footprint.
	TLPHeaderBytes = 24
	// MaxPayload is the maximum TLP payload in bytes.
	MaxPayload = 256
)

// Link models one direction of a PCIe connection: data serializes at
// the effective link rate with per-TLP header overhead, then lands
// after a fixed completion latency.
type Link struct {
	gbps    float64
	latency sim.Time

	busyUntil sim.Time
}

// effective per-lane rates in Gbps after encoding overhead.
var perLaneGbps = map[int]float64{3: 7.88, 4: 15.75, 5: 31.51}

// NewLink returns a link of the given generation and lane count with a
// typical ~500ns completion latency.
func NewLink(name string, gen, lanes int) (*Link, error) {
	pl, ok := perLaneGbps[gen]
	if !ok {
		return nil, fmt.Errorf("pcie: unsupported generation %d", gen)
	}
	if lanes != 8 && lanes != 16 {
		return nil, fmt.Errorf("pcie: unsupported lane count x%d", lanes)
	}
	return &Link{
		gbps:    pl * float64(lanes),
		latency: 500 * sim.Nanosecond,
	}, nil
}

// Latency reports the fixed completion latency.
func (l *Link) Latency() sim.Time { return l.latency }

// wireBytes charges TLP header overhead per MaxPayload chunk.
func wireBytes(payload int) int {
	tlps := (payload + MaxPayload - 1) / MaxPayload
	if tlps == 0 {
		tlps = 1
	}
	return payload + tlps*TLPHeaderBytes
}

// Transfer moves payload bytes across the link starting no earlier than
// now and returns the completion time at the far side.
func (l *Link) Transfer(now sim.Time, payload int) sim.Time {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	wb := wireBytes(payload)
	ser := sim.Time(float64(wb*8) / l.gbps * float64(sim.Nanosecond))
	if ser < 1 {
		ser = 1
	}
	l.busyUntil = start + ser
	return l.busyUntil + l.latency
}
