package metrics

import (
	"fmt"

	"harmonia/internal/sim"
)

// Sample is one windowed measurement.
type Sample struct {
	At sim.Time
	// Rate is the per-second rate of the observed counter over the
	// window ending at At.
	Rate float64
}

// Sampler periodically reads a cumulative counter on a simulation
// engine and records windowed rates — the real-time bps/pps statistics
// the RBB monitoring logic exposes (§3.3.1).
type Sampler struct {
	interval sim.Time
	read     func() int64
	last     int64
	samples  []Sample
}

// NewSampler schedules periodic sampling of read() on eng every
// interval, for the given number of windows.
func NewSampler(eng *sim.Engine, interval sim.Time, windows int, read func() int64) (*Sampler, error) {
	if eng == nil || read == nil || interval <= 0 || windows <= 0 {
		return nil, fmt.Errorf("metrics: invalid sampler config")
	}
	s := &Sampler{interval: interval, read: read}
	var tick func()
	remaining := windows
	tick = func() {
		cur := s.read()
		delta := cur - s.last
		if delta < 0 {
			// Counter reset (source restarted or rolled its window):
			// treat the new absolute value as this window's increment
			// rather than reporting a negative rate.
			delta = cur
		}
		s.last = cur
		s.samples = append(s.samples, Sample{
			At:   eng.Now(),
			Rate: float64(delta) / s.interval.Seconds(),
		})
		remaining--
		if remaining > 0 {
			eng.After(s.interval, tick)
		}
	}
	eng.After(interval, tick)
	return s, nil
}

// Samples returns the recorded windows.
func (s *Sampler) Samples() []Sample { return s.samples }

// MeanRate returns the average windowed rate.
func (s *Sampler) MeanRate() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range s.samples {
		sum += w.Rate
	}
	return sum / float64(len(s.samples))
}
