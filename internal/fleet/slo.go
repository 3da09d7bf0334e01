package fleet

import (
	"fmt"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The cluster's SLO judgment layer: per-service error-budget trackers
// and multi-window burn-rate alerting, advanced exclusively from the
// heartbeat barrier's serial tail (barrierTail → stepSLO). The
// accounting reads the same shard counters the metrics registry reads
// (ServiceStats), and every window advance happens at a barrier — after the
// worker pool has joined — so burn rates, alert transitions and the
// AlertLog are byte-identical across worker counts and batch quanta.
// Nothing here runs on the packet hot path. The autoscaler the
// ROADMAP names will consume BurnRate() as its control signal.

// Default rolling-window sizes in heartbeat ticks, fast to slow.
// Pairing (fast, mid) pages on steep spikes and (slow, long) tickets
// sustained budget burn.
var defaultSLOWindowTicks = []int{4, 16, 64, 256}

// Burn-rule shape derived per latency-critical service: a page when
// both fast windows burn at ≥ pageBurn, a ticket when both slow
// windows burn at ≥ ticketBurn. Bulk services get the ticket rule
// only — a bulk burn is capacity pressure, not an emergency.
const (
	pageBurn   = 8.0
	ticketBurn = 2.0
	// alertPendingTicks barriers of sustained breach promote pending
	// to firing; alertResolveTicks clear barriers resolve.
	alertPendingTicks = 2
	alertResolveTicks = 8
)

// sloEngine holds the window set and the shared alerter; each
// service's tracker and barrier state live on its record (service).
type sloEngine struct {
	windows []obs.SLOWindow
	alerter *obs.Alerter
}

// sloWindowSpecs derives the window set from the config (ticks →
// named obs windows).
func sloWindowSpecs(cfg Config) []obs.SLOWindow {
	ticks := cfg.SLOWindowTicks
	if len(ticks) == 0 {
		ticks = defaultSLOWindowTicks
	}
	out := make([]obs.SLOWindow, len(ticks))
	for i, t := range ticks {
		out[i] = obs.SLOWindow{Name: fmt.Sprintf("%dt", t), Ticks: t}
	}
	return out
}

// newSLOEngine builds the always-on engine at cluster construction.
func newSLOEngine(cfg Config) *sloEngine {
	return &sloEngine{windows: sloWindowSpecs(cfg), alerter: obs.NewAlerter(nil)}
}

// winIdx clamps a preferred window index into the configured set.
func (e *sloEngine) winIdx(i int) int {
	if i >= len(e.windows) {
		return len(e.windows) - 1
	}
	return i
}

// addService wires one service into the engine (from AddService):
// tracker, burn rules by class, and the labeled registry series.
func (c *Cluster) sloAddService(svc *service) {
	e := c.slo
	name := svc.Name
	avail := svc.SLO.Availability
	// A 1.0 objective leaves no budget to divide by; treat it as
	// "any error is an effectively infinite burn".
	if avail >= 1 {
		avail = 0.999999
	}
	tr := obs.NewSLOTracker(avail, e.windows)
	svc.slo = tr
	svc.lastMilli = make([]int64, len(e.windows))

	// Services without an availability objective are tracked (the
	// registry still exposes their burn, degenerating to raw error
	// rate) but never alert.
	if svc.SLO.Availability > 0 {
		if svc.Class == ClassLatencyCritical {
			e.alerter.Add(obs.BurnRule{
				Service: name, Severity: obs.SeverityPage,
				FastWin: e.winIdx(0), SlowWin: e.winIdx(1), Threshold: pageBurn,
				PendingTicks: alertPendingTicks, ResolveTicks: alertResolveTicks,
			})
		}
		e.alerter.Add(obs.BurnRule{
			Service: name, Severity: obs.SeverityTicket,
			FastWin: e.winIdx(2), SlowWin: e.winIdx(3), Threshold: ticketBurn,
			PendingTicks: alertPendingTicks, ResolveTicks: alertResolveTicks,
		})
	}

	for wi, w := range e.windows {
		wi := wi
		labels := map[string]string{"service": name, "window": w.Name}
		c.reg.GaugeL(mSLOBurn, labels,
			"Error-budget burn rate per service and rolling window (1 = exactly at objective).",
			func() float64 { return tr.BurnRate(wi) })
		c.reg.GaugeL(mSLOP99Viol, labels,
			"Fraction of window ticks whose p99 breached the service latency target.",
			func() float64 { return tr.P99ViolationFraction(wi) })
	}
	for _, sev := range []obs.AlertSeverity{obs.SeverityPage, obs.SeverityTicket} {
		for _, st := range []obs.AlertState{obs.AlertPending, obs.AlertFiring, obs.AlertResolved} {
			sev, st := sev, st
			c.reg.CounterL(mAlerts,
				map[string]string{"service": name, "severity": string(sev), "state": string(st)},
				"Burn-rate alert transitions by service, severity and state.",
				func() int64 { return e.alerter.Log().Count(name, sev, st) })
		}
	}
}

// stepSLO advances every tracker one barrier and runs the alerter.
// Runs on the serial control-plane path (barrierTail); never on the
// packet hot path.
func (c *Cluster) stepSLO(now sim.Time) {
	e := c.slo
	if len(c.svcOrder) == 0 {
		return
	}
	for _, svc := range c.svcOrder {
		name := svc.Name
		cur := c.ServiceStats(name)
		total := cur.Sent - svc.prev.Sent
		good := cur.HealthyServed - svc.prev.HealthyServed
		svc.prev = cur
		p99Viol := false
		if svc.SLO.P99 > 0 {
			// The per-service window histogram (reset at each Serve
			// start) is the registry's latency source; its p99 against
			// the target is the tick's violation bit.
			if h := c.ServiceWindowLatencies(name); h.Count() > 0 {
				p99Viol = h.Percentile(99) > svc.SLO.P99
			}
		}
		tr := svc.slo
		tr.Advance(good, total, p99Viol)
		if c.ctrl != nil {
			last := svc.lastMilli
			for wi, w := range e.windows {
				m := int64(tr.BurnRate(wi) * 1000)
				if m == last[wi] {
					continue
				}
				last[wi] = m
				ev := obs.Instant(obs.CatSLO, "burn:"+name, now)
				ev.K1, ev.V1 = "window", w.Name
				ev.K2, ev.V2 = "milli_burn", m
				c.ctrl.Add(ev)
			}
		}
	}
	evs := e.alerter.Step(now, func(svc string, win int) float64 {
		return c.services[svc].slo.BurnRate(win)
	})
	if c.ctrl != nil {
		for _, ev := range evs {
			te := obs.Instant(obs.CatAlert, string(ev.State)+":"+ev.Service, now)
			te.K1, te.V1 = "severity", string(ev.Severity)
			te.K2, te.V2 = "milli_fast", int64(ev.BurnFast*1000)
			te.K3, te.V3 = "milli_slow", int64(ev.BurnSlow*1000)
			c.ctrl.Add(te)
		}
	}
}

// SLOWindows reports the configured rolling windows, fast to slow.
func (c *Cluster) SLOWindows() []obs.SLOWindow { return c.slo.windows }

// BurnRate reports one service's current burn rate over the given
// window index — the control signal the autoscaler consumes. Unknown
// services report 0.
func (c *Cluster) BurnRate(service string, win int) float64 {
	svc, ok := c.services[service]
	if !ok || win < 0 || win >= len(c.slo.windows) {
		return 0
	}
	return svc.slo.BurnRate(win)
}

// ErrorBudgetRemaining reports one service's unburned budget fraction
// over the given window index (1 = no error, negative = violating).
func (c *Cluster) ErrorBudgetRemaining(service string, win int) float64 {
	svc, ok := c.services[service]
	if !ok || win < 0 || win >= len(c.slo.windows) {
		return 1
	}
	return svc.slo.ErrorBudgetRemaining(win)
}

// AlertRules reports the derived burn rules in evaluation order.
func (c *Cluster) AlertRules() []obs.BurnRule { return c.slo.alerter.Rules() }

// AlertEvents reports every alert transition so far, in emission
// order.
func (c *Cluster) AlertEvents() []obs.AlertEvent {
	return append([]obs.AlertEvent(nil), c.slo.alerter.Log().Events()...)
}

// AlertLogBytes renders the append-only alert log in its fixed,
// deterministic line format.
func (c *Cluster) AlertLogBytes() []byte { return c.slo.alerter.Log().Bytes() }

// ActiveAlerts reports how many rules are currently pending or firing.
func (c *Cluster) ActiveAlerts() int { return c.slo.alerter.ActiveCount() }

// CausalEvents renders the fleet's own reaction log — failovers and
// health transitions since the given time — as postmortem candidates.
// The drill merges these with the storm schedule's ground-truth
// events before correlating.
func (c *Cluster) CausalEvents(since sim.Time) []obs.CausalEvent {
	var out []obs.CausalEvent
	for _, t := range c.transitions {
		if t.At < since {
			continue
		}
		out = append(out, obs.CausalEvent{
			At: t.At, Kind: "transition:" + string(t.From) + "->" + string(t.To),
			Subject: t.Node, Detail: t.Reason,
		})
	}
	for _, f := range c.failovers {
		if f.DetectedAt < since {
			continue
		}
		out = append(out, obs.CausalEvent{
			At: f.DetectedAt, Kind: "failover", Subject: f.Node,
			Detail: fmt.Sprintf("%s moved=%d replaced=%d", f.Reason, f.Moved, f.Replaced),
		})
	}
	for _, ev := range c.LoadEvents() {
		if ev.ReqAt < since || ev.Class != LoadFailover {
			continue
		}
		out = append(out, obs.CausalEvent{
			At: ev.ReqAt, Kind: "failover-load", Subject: ev.Node,
		})
	}
	return out
}
