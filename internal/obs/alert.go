package obs

import (
	"bytes"
	"fmt"

	"harmonia/internal/sim"
)

// Multi-window burn-rate alerting (the Google-SRE shape): a rule
// fires only when BOTH a fast and a slow window burn above the
// threshold — the fast window catches the spike quickly, the slow
// window keeps one bad tick from paging. Rules advance through a
// pending → firing → resolved state machine once per heartbeat
// barrier, on the serial path, so the transition sequence and the
// append-only AlertLog are byte-identical across worker counts and
// batch quanta.

// AlertSeverity ranks a rule's urgency.
type AlertSeverity string

const (
	// SeverityPage is for fast, steep burns that need immediate action.
	SeverityPage AlertSeverity = "page"
	// SeverityTicket is for slow burns that will exhaust budget
	// eventually.
	SeverityTicket AlertSeverity = "ticket"
)

// AlertState is a rule's externally visible state.
type AlertState string

const (
	// AlertPending: the condition holds but has not persisted long
	// enough to fire.
	AlertPending AlertState = "pending"
	// AlertFiring: the condition persisted PendingTicks barriers.
	AlertFiring AlertState = "firing"
	// AlertResolved: the condition stayed clear ResolveTicks barriers
	// after pending/firing.
	AlertResolved AlertState = "resolved"
)

// BurnRule is one multi-window burn-rate alerting rule over a
// service's SLOTracker windows.
type BurnRule struct {
	Service   string
	Severity  AlertSeverity
	FastWin   int     // index of the fast window in the tracker
	SlowWin   int     // index of the slow window in the tracker
	Threshold float64 // burn-rate threshold both windows must exceed
	// PendingTicks is how many consecutive breaching barriers promote
	// pending to firing (min 1). ResolveTicks is how many consecutive
	// clear barriers resolve a pending/firing alert (min 1).
	PendingTicks int
	ResolveTicks int
}

// AlertEvent is one state transition, appended to the AlertLog and
// emitted as an alert-category trace instant.
type AlertEvent struct {
	At       sim.Time      `json:"at_ps"`
	Service  string        `json:"service"`
	Severity AlertSeverity `json:"severity"`
	State    AlertState    `json:"state"`
	// BurnFast/BurnSlow snapshot the two window burns at transition
	// time (for resolved, the burns that cleared).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// ruleState is a rule plus its live state-machine position.
type ruleState struct {
	rule   BurnRule
	active AlertState // "" when inactive
	breach int        // consecutive breaching barriers while pending
	clear  int        // consecutive clear barriers while pending/firing
}

// Alerter evaluates a fixed rule set each barrier. Rule order is
// registration order; evaluation is pure over the burn callback.
type Alerter struct {
	rules []ruleState
	log   AlertLog
}

// NewAlerter builds an alerter over the given rules. Zero
// PendingTicks/ResolveTicks default to 1.
func NewAlerter(rules []BurnRule) *Alerter {
	a := &Alerter{}
	for _, r := range rules {
		a.Add(r)
	}
	return a
}

// Add appends one rule to the evaluation order (services register
// incrementally). The new rule starts inactive.
func (a *Alerter) Add(r BurnRule) {
	if r.Service == "" {
		panic("obs: burn rule needs a service")
	}
	if r.Threshold <= 0 {
		panic(fmt.Sprintf("obs: burn rule %s/%s needs a positive threshold", r.Service, r.Severity))
	}
	if r.PendingTicks < 1 {
		r.PendingTicks = 1
	}
	if r.ResolveTicks < 1 {
		r.ResolveTicks = 1
	}
	a.rules = append(a.rules, ruleState{rule: r})
}

// Rules reports the configured rules in evaluation order.
func (a *Alerter) Rules() []BurnRule {
	out := make([]BurnRule, len(a.rules))
	for i := range a.rules {
		out[i] = a.rules[i].rule
	}
	return out
}

// Step evaluates every rule against the burn callback (service,
// window index → burn rate) at one barrier and returns the
// transitions it produced, already appended to the log. Must be
// called exactly once per barrier, on the serial path.
func (a *Alerter) Step(now sim.Time, burn func(service string, win int) float64) []AlertEvent {
	var out []AlertEvent
	for i := range a.rules {
		rs := &a.rules[i]
		r := rs.rule
		fast := burn(r.Service, r.FastWin)
		slow := burn(r.Service, r.SlowWin)
		cond := fast >= r.Threshold && slow >= r.Threshold
		emit := func(state AlertState) {
			ev := AlertEvent{At: now, Service: r.Service, Severity: r.Severity,
				State: state, BurnFast: fast, BurnSlow: slow}
			a.log.append(ev)
			out = append(out, ev)
		}
		switch rs.active {
		case "": // inactive
			if cond {
				rs.active = AlertPending
				rs.breach = 1
				rs.clear = 0
				emit(AlertPending)
				if rs.breach >= r.PendingTicks {
					rs.active = AlertFiring
					emit(AlertFiring)
				}
			}
		case AlertPending:
			if cond {
				if rs.clear > 0 {
					rs.breach = 1 // a clear tick broke the streak
				} else {
					rs.breach++
				}
				rs.clear = 0
				if rs.breach >= r.PendingTicks {
					rs.active = AlertFiring
					emit(AlertFiring)
				}
			} else {
				rs.clear++
				if rs.clear >= r.ResolveTicks {
					rs.active = ""
					emit(AlertResolved)
				}
			}
		case AlertFiring:
			if cond {
				rs.clear = 0
			} else {
				rs.clear++
				if rs.clear >= r.ResolveTicks {
					rs.active = ""
					emit(AlertResolved)
				}
			}
		}
	}
	return out
}

// ActiveCount reports how many rules are currently pending or firing.
func (a *Alerter) ActiveCount() int {
	n := 0
	for i := range a.rules {
		if a.rules[i].active != "" {
			n++
		}
	}
	return n
}

// Log exposes the append-only alert log.
func (a *Alerter) Log() *AlertLog { return &a.log }

// AlertLog is the append-only record of every alert transition.
type AlertLog struct {
	events []AlertEvent
}

func (l *AlertLog) append(ev AlertEvent) { l.events = append(l.events, ev) }

// Events returns the transitions in emission order. The slice is
// shared; callers must not mutate it.
func (l *AlertLog) Events() []AlertEvent { return l.events }

// Count reports transitions matching the given service, severity and
// state (empty strings match everything).
func (l *AlertLog) Count(service string, sev AlertSeverity, state AlertState) int64 {
	var n int64
	for _, e := range l.events {
		if (service == "" || e.Service == service) &&
			(sev == "" || e.Severity == sev) &&
			(state == "" || e.State == state) {
			n++
		}
	}
	return n
}

// Bytes renders the log in a fixed line format. Two identical runs
// produce identical bytes — the determinism harness diffs this
// directly.
func (l *AlertLog) Bytes() []byte {
	var b bytes.Buffer
	for _, e := range l.events {
		fmt.Fprintf(&b, "at=%d service=%s severity=%s state=%s fast=%s slow=%s\n",
			int64(e.At), e.Service, e.Severity, e.State,
			promFloat(e.BurnFast), promFloat(e.BurnSlow))
	}
	return b.Bytes()
}
