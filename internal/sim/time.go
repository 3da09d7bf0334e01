// Package sim provides the discrete-event simulation substrate used by
// every functional model in this repository: simulated time, clock
// domains, an event engine, FIFOs, asynchronous (clock-domain-crossing)
// FIFOs, and pipeline primitives.
//
// The paper's performance results (throughput and latency of MACs, PCIe
// DMA engines, DDR controllers, and whole applications) are regenerated
// on top of this engine. Time is tracked in picoseconds so that clock
// periods from tens of MHz to several GHz are exactly representable.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock describes a clock domain with a fixed frequency. The zero value
// is not usable; construct clocks with NewClock.
type Clock struct {
	period Time
}

// NewClock returns a clock domain running at freqMHz. It panics if the
// frequency is not positive or is too high to represent (> 1 THz).
func NewClock(name string, freqMHz float64) *Clock {
	if freqMHz <= 0 || math.IsNaN(freqMHz) || math.IsInf(freqMHz, 0) {
		panic(fmt.Sprintf("sim: invalid clock frequency %v MHz for %q", freqMHz, name))
	}
	period := Time(math.Round(1e6 / freqMHz)) // 1 MHz -> 1e6 ps period
	if period < 1 {
		panic(fmt.Sprintf("sim: clock %q frequency %v MHz exceeds 1 THz", name, freqMHz))
	}
	return &Clock{period: period}
}

// Period reports the clock period.
func (c *Clock) Period() Time { return c.period }

// CyclesTime converts a cycle count into a duration.
func (c *Clock) CyclesTime(n int64) Time { return Time(n) * c.period }

// NextEdge returns the first rising edge at or after t, assuming an edge
// at time zero.
func (c *Clock) NextEdge(t Time) Time {
	if t <= 0 {
		return 0
	}
	rem := t % c.period
	if rem == 0 {
		return t
	}
	return t + c.period - rem
}
