package obs

import (
	"bytes"
	"fmt"
	"sort"

	"harmonia/internal/sim"
)

// The causal postmortem engine correlates alert firings back to the
// cluster events that plausibly caused them. Callers feed it a merged
// causal event log — scheduled fault injections (ground truth from
// the faults.Schedule), failovers, sheds, preemptions, rebalance
// aborts — and a lookback derived from the health plane's detection
// bound; for each firing it groups the events inside the lookback
// window by kind and ranks them: scheduled faults first (they ARE the
// root cause when present), then by count. Everything is sorted, so
// the attribution — like every other observable in the repo — is
// byte-identical per seed.

// CausalEvent is one entry in the merged cluster event log.
type CausalEvent struct {
	At      sim.Time
	Kind    string // e.g. "kill", "thermal-ramp", "failover", "bulk-shed"
	Subject string // the node, rack or service the event happened to
	Detail  string // free-form context, kept short
	// Scheduled marks ground truth: the event came from the injected
	// fault schedule rather than from the fleet's own reactions.
	Scheduled bool
}

// Attribution is one ranked cause group in a postmortem: every
// in-window event of one kind, collapsed. The JSON form is the cause
// record of the SLO drill's artifact.
type Attribution struct {
	Kind      string   `json:"kind"`
	Count     int      `json:"count"`
	Scheduled bool     `json:"scheduled"`
	First     sim.Time `json:"first_ps"`
	Last      sim.Time `json:"last_ps"`
	Example   string   `json:"example"` // subject (+ detail) of the earliest event
}

// AlertPostmortem is the causal report for one firing alert.
type AlertPostmortem struct {
	Alert       AlertEvent
	WindowStart sim.Time
	WindowEnd   sim.Time
	Causes      []Attribution
}

// Scheduled reports whether the postmortem attributes the firing to
// at least one ground-truth scheduled fault.
func (p *AlertPostmortem) Scheduled() bool {
	for _, c := range p.Causes {
		if c.Scheduled {
			return true
		}
	}
	return false
}

// Correlate builds one postmortem per firing transition in firings
// (other states are skipped). For each firing at time T it collects
// every causal event in [T - lookback, T], groups by (kind,
// scheduled), and ranks scheduled groups first, then larger groups,
// then kind name — a deterministic order. Events need not be sorted.
func Correlate(firings []AlertEvent, events []CausalEvent, lookback sim.Time) []AlertPostmortem {
	if lookback < 0 {
		lookback = 0
	}
	var out []AlertPostmortem
	for _, f := range firings {
		if f.State != AlertFiring {
			continue
		}
		start := f.At - lookback
		if start < 0 {
			start = 0
		}
		pm := AlertPostmortem{Alert: f, WindowStart: start, WindowEnd: f.At}
		type gkey struct {
			kind      string
			scheduled bool
		}
		groups := make(map[gkey]*Attribution)
		var order []gkey
		// Scan in time order so First/Example are the earliest event
		// regardless of input order.
		sorted := make([]CausalEvent, 0, len(events))
		for _, e := range events {
			if e.At >= start && e.At <= f.At {
				sorted = append(sorted, e)
			}
		}
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
		for _, e := range sorted {
			k := gkey{e.Kind, e.Scheduled}
			g := groups[k]
			if g == nil {
				ex := e.Subject
				if e.Detail != "" {
					ex += " " + e.Detail
				}
				g = &Attribution{Kind: e.Kind, Scheduled: e.Scheduled, First: e.At, Last: e.At, Example: ex}
				groups[k] = g
				order = append(order, k)
			}
			g.Count++
			if e.At > g.Last {
				g.Last = e.At
			}
		}
		for _, k := range order {
			pm.Causes = append(pm.Causes, *groups[k])
		}
		sort.SliceStable(pm.Causes, func(i, j int) bool {
			a, b := pm.Causes[i], pm.Causes[j]
			if a.Scheduled != b.Scheduled {
				return a.Scheduled
			}
			if a.Count != b.Count {
				return a.Count > b.Count
			}
			return a.Kind < b.Kind
		})
		out = append(out, pm)
	}
	return out
}

// ms renders a sim time as fixed-point milliseconds for the timeline.
func pmMillis(t sim.Time) string {
	return fmt.Sprintf("%.3fms", float64(t)/float64(sim.Millisecond))
}

// RenderTimeline renders postmortems as a human-readable report:
//
//	POSTMORTEM layer4-lb page firing @4.300ms (window 0.000ms..4.300ms, fast burn 212, slow burn 14.6)
//	  <- [scheduled] kill x3 (4.200ms..4.250ms) e.g. fpga-012
//	  <- failover x3 (4.250ms..4.300ms) e.g. fpga-012 reason=gossip-confirm
func RenderTimeline(pms []AlertPostmortem) []byte {
	var b bytes.Buffer
	for _, pm := range pms {
		fmt.Fprintf(&b, "POSTMORTEM %s %s firing @%s (window %s..%s, fast burn %s, slow burn %s)\n",
			pm.Alert.Service, pm.Alert.Severity, pmMillis(pm.Alert.At),
			pmMillis(pm.WindowStart), pmMillis(pm.WindowEnd),
			promFloat(pm.Alert.BurnFast), promFloat(pm.Alert.BurnSlow))
		if len(pm.Causes) == 0 {
			b.WriteString("  <- no correlated events: cause unknown\n")
			continue
		}
		for _, c := range pm.Causes {
			tag := ""
			if c.Scheduled {
				tag = "[scheduled] "
			}
			fmt.Fprintf(&b, "  <- %s%s x%d (%s..%s) e.g. %s\n",
				tag, c.Kind, c.Count, pmMillis(c.First), pmMillis(c.Last), c.Example)
		}
	}
	return b.Bytes()
}
