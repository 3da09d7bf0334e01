package fleet

// Thermal-margin-derived load shedding. The static router treats
// "degraded" as a binary: a node past the alarm threshold pays a flat
// ×4 queue-depth penalty. A real die throttles *before* the alarm —
// clock throttling derates throughput as the junction temperature
// approaches the trip point — so the derived model sheds load in
// proportion to the eroded margin: no penalty with full margin, a
// penalty growing linearly as temperature climbs from the shed-start
// line to the alarm, and (with DerivedShedding) no traffic at all past
// the alarm, where the static policy kept routing at ×4.

// shedFloorFactor is the throttled throughput fraction at the alarm
// threshold: a die at the trip point runs at a quarter speed. Its
// inverse (×4) makes the derived penalty meet the static
// degradedPenalty exactly at the alarm line — the static policy is the
// step-function approximation of this ramp.
const shedFloorFactor = 0.25

// throttleFactor models clock throttling: the fraction of nominal
// throughput a die sustains at temp (milli-degC), given the shed-start
// and alarm thresholds. 1.0 with full margin, linear derating to
// shedFloorFactor at the alarm and beyond.
func throttleFactor(temp, shedStart, alarm uint32) float64 {
	if alarm <= shedStart {
		// Degenerate thresholds: only the alarm line matters.
		if temp >= alarm {
			return shedFloorFactor
		}
		return 1
	}
	switch {
	case temp <= shedStart:
		return 1
	case temp >= alarm:
		return shedFloorFactor
	}
	erosion := float64(temp-shedStart) / float64(alarm-shedStart)
	return 1 - erosion*(1-shedFloorFactor)
}

// bulkShedFactor is the throttle factor at which a node stops taking
// bulk-class traffic entirely: once the die is derated to half speed,
// the remaining throughput is reserved for co-resident latency-critical
// services. Bulk therefore sheds strictly before latency-critical —
// latency-critical traffic keeps flowing until the alarm line, where
// derived shedding makes the node unroutable for every class.
const bulkShedFactor = 0.5

// shedsBulk reports whether a node at temp (milli-degC) has eroded past
// the bulk-shed line. Only meaningful with DerivedShedding; the static
// policy has no pre-alarm signal to order classes by.
func (c *Cluster) shedsBulk(temp uint32) bool {
	if !c.cfg.DerivedShedding {
		return false
	}
	return throttleFactor(temp, c.shedStart(), c.cfg.DegradeMilliC) <= bulkShedFactor
}

// shedStart resolves the temperature where derived shedding begins.
func (c *Cluster) shedStart() uint32 {
	if c.cfg.ShedStartMilliC > 0 {
		return c.cfg.ShedStartMilliC
	}
	if c.cfg.DegradeMilliC > defaultShedMargin {
		return c.cfg.DegradeMilliC - defaultShedMargin
	}
	return 0
}

// defaultShedMargin is how far below the alarm threshold derived
// shedding starts when ShedStartMilliC is unset (milli-degC).
const defaultShedMargin = 10_000

// thermalPenalty is the routing-cost multiplier derived from a node's
// last heartbeat temperature: the inverse of its modeled throughput
// fraction, so a die throttled to half speed looks twice as expensive.
func (c *Cluster) thermalPenalty(temp uint32) float64 {
	return 1 / throttleFactor(temp, c.shedStart(), c.cfg.DegradeMilliC)
}

// ThermalPenalty exposes the derived penalty curve for validation and
// the chaos drill's penalty series.
func (c *Cluster) ThermalPenalty(temp uint32) float64 { return c.thermalPenalty(temp) }

// routableState reports whether a node in this state takes traffic.
// Statically, degraded nodes keep serving behind their flat penalty;
// with derived shedding the ramp already drained traffic before the
// alarm, and past it the node takes none ("no packet routes to a node
// after its alarm fires").
func (c *Cluster) routableState(s State) bool {
	if c.cfg.DerivedShedding {
		return s == Healthy
	}
	return s == Healthy || s == Degraded
}
