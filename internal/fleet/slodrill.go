package fleet

import (
	"bytes"
	"fmt"
	"strings"

	"harmonia/internal/faults"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The fleet10 SLO drill replays the fleet5 failure storm over the
// fleet8 co-resident fleet and judges the new SLO layer end to end:
// the latency-critical services' burn-rate alerts must fire during
// the storm, every firing must be attributed by the postmortem engine
// to at least one ground-truth scheduled fault, a fault-free control
// replay of the same fleet must stay silent, every alert must resolve
// within the recovery bound, and the whole alert/burn state must be
// byte-identical across batch quanta and worker counts (the engine
// advances only at heartbeat barriers, so this is a direct check of
// the determinism contract).

// sloWindowTicks sizes the drill's rolling windows: the storm spans
// ~6 ms and the drill ~16 ms, so the stock {4,16,64,256} tick set
// (slowest window 12.8 ms) could not drain before the drill ends.
// {2,8,24,48} ticks = 100µs/400µs/1.2ms/2.4ms keeps the page pair
// spike-sensitive and lets the ticket pair resolve inside the tail.
var sloWindowTicks = []int{2, 8, 24, 48}

// sloSweep is the (BatchQuantum, ServeWorkers) determinism sweep: the
// alert log and final burn state must come out byte-identical for
// every variant.
var sloSweep = [][2]int{{0, 1}, {64, 2}, {4096, 8}}

// SLOWindowSample is one measurement window of the drill's baseline
// storm case.
type SLOWindowSample struct {
	At sim.Time `json:"at_ps"`
	// LCAvailability is the layer-4 LB's healthy-served/sent inside
	// the window (1 when it offered nothing).
	LCAvailability float64 `json:"lc_availability"`
	// ActiveAlerts counts rules pending or firing at the window edge.
	ActiveAlerts int `json:"active_alerts"`
}

// SLOServiceResult is one service's storm outcome through the SLO
// engine's eyes.
type SLOServiceResult struct {
	Name   string       `json:"name"`
	Class  ServiceClass `json:"class"`
	Target float64      `json:"target"`
	// Availability is healthy-served/sent over the whole storm.
	Availability float64 `json:"availability"`
	// PeakFastBurn is the highest fast-window burn rate any barrier
	// saw (sampled at window edges).
	PeakFastBurn float64 `json:"peak_fast_burn"`
	// Firings/Resolves count this service's alert transitions.
	Firings  int64 `json:"firings"`
	Resolves int64 `json:"resolves"`
}

// SLOCause is one ranked attribution inside a postmortem.
type SLOCause struct {
	Kind      string   `json:"kind"`
	Count     int      `json:"count"`
	Scheduled bool     `json:"scheduled"`
	First     sim.Time `json:"first_ps"`
	Last      sim.Time `json:"last_ps"`
	Example   string   `json:"example"`
}

// SLOPostmortem is one firing's causal attribution.
type SLOPostmortem struct {
	Service     string            `json:"service"`
	Severity    obs.AlertSeverity `json:"severity"`
	FiringAt    sim.Time          `json:"firing_at_ps"`
	WindowStart sim.Time          `json:"window_start_ps"`
	WindowEnd   sim.Time          `json:"window_end_ps"`
	// Attributed marks a firing with at least one scheduled-fault cause.
	Attributed bool       `json:"attributed"`
	Causes     []SLOCause `json:"causes"`
}

// SLOResult is the fleet10 report and the machine-readable artifact
// (BENCH_slo.json), gates and repro line included.
type SLOResult struct {
	Experiment string `json:"experiment"` // always "fleet10"
	Devices    int    `json:"devices"`
	RackSize   int    `json:"rack_size"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`

	StormStart sim.Time `json:"storm_start_ps"`
	StormEnd   sim.Time `json:"storm_end_ps"`
	Injections []string `json:"injections"`
	// Windows are the rolling error-budget windows ("2t" = 2 heartbeat
	// ticks), Rules the burn-rate alert rules derived per service.
	Windows []string `json:"windows"`
	Rules   []string `json:"rules"`

	Services []SLOServiceResult `json:"services"`

	// Alerts is the baseline storm case's full transition log;
	// AlertLog its fixed-format rendering.
	Alerts   []obs.AlertEvent `json:"alerts"`
	AlertLog string           `json:"alert_log"`

	// Lookback is the attribution window each firing is correlated
	// over, derived from the detection bound and the PR-load retry
	// budget.
	Lookback    sim.Time        `json:"lookback_ps"`
	Postmortems []SLOPostmortem `json:"postmortems"`
	// Timeline is the human-readable postmortem report.
	Timeline string `json:"timeline"`

	// Firings and attribution.
	FiringsTotal        int `json:"firings_total"`
	FiringsLC           int `json:"firings_lc"`
	UnattributedFirings int `json:"unattributed_firings"`
	// Control case: the same fleet, traffic and scale-out with zero
	// injections.
	ControlFirings      int `json:"control_firings"`
	ControlAttributions int `json:"control_attributions"`

	// Resolution.
	AllResolved    bool     `json:"all_resolved"`
	LastResolvedAt sim.Time `json:"last_resolved_at_ps"`
	RecoveryBound  sim.Time `json:"recovery_bound_ps"`

	// SweepVariants are the (quantum, workers) determinism-sweep runs.
	SweepVariants []string `json:"sweep_variants"`

	Samples []SLOWindowSample `json:"samples"`

	// Metrics is the baseline case's end-of-storm registry snapshot;
	// Registry the live registry for Prometheus export.
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Registry *obs.Registry      `json:"-"`

	// The acceptance gates:
	//   - AlertsAttributed: the storm fired at least one
	//     latency-critical burn alert, every firing carries at least
	//     one scheduled-fault attribution, and the fault-free control
	//     produced zero firings and zero attributions;
	//   - AlertsResolved: no alert was still pending or firing at
	//     drill end and the last resolution landed inside the
	//     measured recovery bound;
	//   - Deterministic: the alert log and final burn state were
	//     byte-identical across every (batch quantum, worker count)
	//     sweep variant.
	AlertsAttributed bool `json:"alerts_attributed"`
	AlertsResolved   bool `json:"alerts_resolved"`
	Deterministic    bool `json:"deterministic"`

	// Repro rebuilds this exact report from the seed.
	Repro string `json:"repro"`
}

// Failures names every fleet10 gate that did not hold.
func (r *SLOResult) Failures() []string {
	return failedGates(
		gate{"alerts_attributed", r.AlertsAttributed},
		gate{"alerts_resolved", r.AlertsResolved},
		gate{"deterministic", r.Deterministic},
	)
}

// sloCase is one full replay's outcome.
type sloCase struct {
	c        *Cluster
	alerts   []obs.AlertEvent
	alertLog []byte
	burn     string
	causal   []obs.CausalEvent
	samples  []SLOWindowSample
	peakFast map[string]float64
	pre      map[string]ServiceSnapshot
}

// burnState renders every (service, window) burn rate in a fixed
// order — the sweep's second byte-comparison surface next to the
// alert log.
func burnState(c *Cluster) string {
	var b strings.Builder
	for _, name := range c.Services() {
		for wi, w := range c.SLOWindows() {
			fmt.Fprintf(&b, "%s|%s=%.9f\n", name, w.Name, c.BurnRate(name, wi))
		}
	}
	return b.String()
}

// runSLOCase replays the storm (or, with inject false, a fault-free
// control) against a fresh co-resident fleet with the SLO windows
// armed and the given determinism-sweep variant.
func runSLOCase(opts DrillOptions, sched *faults.Schedule, quantum, workers int, inject bool, trace *obs.Recorder) (*sloCase, error) {
	// Static shedding, deliberately: with the derived-shedding defense
	// armed the co-resident fleet heals the storm losslessly (fleet8's
	// artifact records availability 1.0), so there is nothing for an
	// alert to detect. The SLO layer's job is to catch the fleet when
	// a defense is imperfect — static thermal shedding keeps degraded
	// nodes serving (unhealthy serves burn the error budget, exactly
	// as in fleet5's static cases) and gives the storm a real,
	// attributable availability signature.
	cfg := stormConfig(opts.Seed, false)
	cfg.SlotRes = coresSlotRes
	cfg.SLOWindowTicks = sloWindowTicks
	cfg.BatchQuantum = quantum
	cfg.ServeWorkers = workers

	svcs, err := coresServices(opts.Devices)
	if err != nil {
		return nil, err
	}
	c, err := BuildCoResidentCluster(cfg, svcs, opts.Devices)
	if err != nil {
		return nil, err
	}
	if trace != nil {
		c.SetTrace(trace.Process("slo-storm"))
	}
	st, err := startStorm(c, sched, opts.Budget, func(w int) []Traffic { return coresTraffics(opts.Seed, w) })
	if err != nil {
		return nil, err
	}
	if err := c.ScaleService(st.start, coresBulkApp, coresScaleOutFor(opts.Budget)); err != nil {
		return nil, err
	}

	cs := &sloCase{
		c:        c,
		peakFast: make(map[string]float64),
		pre:      make(map[string]ServiceSnapshot),
	}
	names := c.Services()
	for _, name := range names {
		cs.pre[name] = c.ServiceStats(name)
	}
	winStats := make(map[string]ServiceSnapshot, len(names))
	for w := 0; w < stormWindows; w++ {
		if inject {
			if err := st.inject(w); err != nil {
				return nil, err
			}
		}
		for _, name := range names {
			winStats[name] = c.ServiceStats(name)
		}
		if _, err := st.serve(w); err != nil {
			return nil, err
		}
		sample := SLOWindowSample{At: c.Now(), ActiveAlerts: c.ActiveAlerts()}
		for _, name := range names {
			before := winStats[name]
			after := c.ServiceStats(name)
			if name == chaosApp {
				sample.LCAvailability = 1
				if d := after.Sent - before.Sent; d > 0 {
					sample.LCAvailability = float64(after.HealthyServed-before.HealthyServed) / float64(d)
				}
			}
			// The class shedding order showing up as bulk shed deltas is
			// itself postmortem evidence: sheds inside an alert's
			// lookback explain where the lost demand went.
			if shed := after.Shed - before.Shed; shed > 0 {
				cs.causal = append(cs.causal, obs.CausalEvent{
					At: c.Now(), Kind: "bulk-shed", Subject: name,
					Detail: fmt.Sprintf("%d pkts", shed),
				})
			}
			if burn := c.BurnRate(name, 0); burn > cs.peakFast[name] {
				cs.peakFast[name] = burn
			}
		}
		cs.samples = append(cs.samples, sample)
	}

	cs.alerts = c.AlertEvents()
	cs.alertLog = c.AlertLogBytes()
	cs.burn = burnState(c)
	cs.causal = append(cs.causal, c.CausalEvents(st.start)...)
	if inject {
		ids := func(node int) string {
			if node >= 0 && node < len(st.nodes) {
				return st.nodes[node].ID
			}
			return fmt.Sprintf("node-%d", node)
		}
		cs.causal = append(cs.causal, sched.CausalEvents(ids)...)
	}
	return cs, nil
}

// SLODrill runs the fleet10 experiment: the seeded storm over the
// co-resident fleet with the SLO engine judging it, plus the
// fault-free control and the determinism sweep.
func SLODrill(opts DrillOptions) (*SLOResult, error) {
	if err := opts.check("SLO", 8); err != nil {
		return nil, err
	}
	sched, err := stormPlan(opts, true)
	if err != nil {
		return nil, err
	}
	res := &SLOResult{
		Experiment: "fleet10",
		Devices:    opts.Devices, RackSize: sched.Spec.RackSize,
		Seed: opts.Seed, Budget: opts.Budget,
		StormStart: sched.Spec.Start, StormEnd: sched.End(),
		Injections: injections(sched),
	}

	// The determinism sweep: the first variant is the baseline the
	// report describes; every later variant must reproduce its alert
	// log and burn state byte for byte.
	var base *sloCase
	deterministic := true
	for i, v := range sloSweep {
		var tr *obs.Recorder
		if i == 0 {
			tr = opts.Trace
		}
		cs, err := runSLOCase(opts, sched, v[0], v[1], true, tr)
		if err != nil {
			return nil, fmt.Errorf("fleet: slo case quantum=%d workers=%d: %w", v[0], v[1], err)
		}
		res.SweepVariants = append(res.SweepVariants, fmt.Sprintf("quantum=%d workers=%d", v[0], v[1]))
		if i == 0 {
			base = cs
			continue
		}
		if !bytes.Equal(cs.alertLog, base.alertLog) || cs.burn != base.burn {
			deterministic = false
		}
	}
	c := base.c
	cfg := c.Config()

	windows := c.SLOWindows()
	for _, w := range windows {
		res.Windows = append(res.Windows, w.Name)
	}
	for _, r := range c.AlertRules() {
		res.Rules = append(res.Rules, fmt.Sprintf("%s %s burn>=%g over (%s,%s)",
			r.Service, r.Severity, r.Threshold, windows[r.FastWin].Name, windows[r.SlowWin].Name))
	}
	res.Samples = base.samples
	res.Alerts = base.alerts
	res.AlertLog = string(base.alertLog)

	// Attribution lookback: a firing can trail its root cause by the
	// gossip detection bound (silent death → declared failed) plus the
	// full PR-load retry budget (failed loads re-place and retry
	// before demand recovers) plus one mid window of burn accumulation.
	res.Lookback = c.GossipDetectionBound() +
		sim.Time(loadRetries+1)*cfg.ReconfigTime +
		sim.Time(sloWindowTicks[1])*cfg.Heartbeat
	pms := obs.Correlate(base.alerts, base.causal, res.Lookback)
	res.Timeline = string(obs.RenderTimeline(pms))
	for _, pm := range pms {
		p := SLOPostmortem{
			Service: pm.Alert.Service, Severity: pm.Alert.Severity, FiringAt: pm.Alert.At,
			WindowStart: pm.WindowStart, WindowEnd: pm.WindowEnd, Attributed: pm.Scheduled(),
		}
		for _, a := range pm.Causes {
			p.Causes = append(p.Causes, SLOCause{
				Kind: a.Kind, Count: a.Count, Scheduled: a.Scheduled,
				First: a.First, Last: a.Last, Example: a.Example,
			})
		}
		res.Postmortems = append(res.Postmortems, p)
		res.FiringsTotal++
		if c.services[p.Service].Class == ClassLatencyCritical {
			res.FiringsLC++
		}
		if !p.Attributed {
			res.UnattributedFirings++
		}
	}

	// Resolution gate: every alert resolved, and the last resolution
	// inside the measured recovery bound — the storm's end or the last
	// failover's completed re-placement, whichever is later, plus the
	// slowest window's drain time and the resolve hysteresis.
	res.AllResolved = c.ActiveAlerts() == 0
	for _, ev := range base.alerts {
		if ev.State == obs.AlertResolved && ev.At > res.LastResolvedAt {
			res.LastResolvedAt = ev.At
		}
	}
	recovered := res.StormEnd
	for _, f := range c.Failovers() {
		if f.RecoveredAt > recovered {
			recovered = f.RecoveredAt
		}
	}
	slowest := sim.Time(sloWindowTicks[len(sloWindowTicks)-1]) * cfg.Heartbeat
	res.RecoveryBound = recovered + slowest + sim.Time(alertResolveTicks+2)*cfg.Heartbeat

	// Per-service storm outcomes.
	log := c.slo.alerter.Log()
	for _, name := range c.Services() {
		svc := c.services[name]
		before := base.pre[name]
		after := c.ServiceStats(name)
		sr := SLOServiceResult{
			Name: name, Class: svc.Class, Target: svc.SLO.Availability,
			PeakFastBurn: base.peakFast[name],
			Firings:      log.Count(name, "", obs.AlertFiring),
			Resolves:     log.Count(name, "", obs.AlertResolved),
		}
		if d := after.Sent - before.Sent; d > 0 {
			sr.Availability = float64(after.HealthyServed-before.HealthyServed) / float64(d)
		}
		res.Services = append(res.Services, sr)
	}

	// Control: the same fleet, traffic and elective scale-out with
	// zero injections must produce zero firings and zero attributions.
	ctl, err := runSLOCase(opts, sched, sloSweep[0][0], sloSweep[0][1], false, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: slo control case: %w", err)
	}
	ctlPMs := obs.Correlate(ctl.alerts, ctl.causal, res.Lookback)
	for _, ev := range ctl.alerts {
		if ev.State == obs.AlertFiring {
			res.ControlFirings++
		}
	}
	for _, pm := range ctlPMs {
		res.ControlAttributions += len(pm.Causes)
	}

	res.Registry = c.Metrics()
	res.Metrics = res.Registry.Values()

	res.AlertsAttributed = res.FiringsLC >= 1 && res.UnattributedFirings == 0 &&
		res.ControlFirings == 0 && res.ControlAttributions == 0
	res.AlertsResolved = res.AllResolved && res.LastResolvedAt <= res.RecoveryBound
	res.Deterministic = deterministic
	res.Repro = stormRepro("slo", opts)
	return res, nil
}
