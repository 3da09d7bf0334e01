package obs

import (
	"strings"
	"testing"

	"harmonia/internal/sim"
)

func testWindows() []SLOWindow {
	return []SLOWindow{{Name: "2t", Ticks: 2}, {Name: "8t", Ticks: 8}}
}

func TestSLOTrackerWindowMath(t *testing.T) {
	tr := NewSLOTracker(0.99, testWindows()) // budget 0.01
	// Four clean ticks, then one tick with 10% errors.
	for i := 0; i < 4; i++ {
		tr.Advance(100, 100, false)
	}
	tr.Advance(90, 100, true)
	// Fast window (2 ticks): 10 errors / 200 sent.
	if got, want := tr.ErrorRate(0), 10.0/200; got != want {
		t.Errorf("fast ErrorRate = %v, want %v", got, want)
	}
	budget := 1 - tr.target
	if got, want := tr.BurnRate(0), (10.0/200)/budget; got != want {
		t.Errorf("fast BurnRate = %v, want %v", got, want)
	}
	// Slow window (8 ticks, 5 filled): 10 errors / 500 sent.
	if got, want := tr.ErrorRate(1), 10.0/500; got != want {
		t.Errorf("slow ErrorRate = %v, want %v", got, want)
	}
	if got, want := tr.P99ViolationFraction(0), 0.5; got != want {
		t.Errorf("fast P99ViolationFraction = %v, want %v", got, want)
	}
	// Two more clean ticks evict the bad tick from the fast window.
	tr.Advance(100, 100, false)
	tr.Advance(100, 100, false)
	if got := tr.ErrorRate(0); got != 0 {
		t.Errorf("fast ErrorRate after eviction = %v, want 0", got)
	}
	if got := tr.ErrorRate(1); got == 0 {
		t.Error("slow window evicted the bad tick too early")
	}
}

func TestSLOTrackerIdleWindows(t *testing.T) {
	tr := NewSLOTracker(0.999, testWindows())
	if got := tr.ErrorRate(0); got != 0 {
		t.Errorf("empty tracker ErrorRate = %v, want 0", got)
	}
	// Zero-traffic ticks burn nothing.
	tr.Advance(0, 0, false)
	tr.Advance(0, 0, false)
	if got := tr.BurnRate(1); got != 0 {
		t.Errorf("idle BurnRate = %v, want 0", got)
	}
}

func TestSLOTrackerValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"availability 1": func() { NewSLOTracker(1, testWindows()) },
		"no windows":     func() { NewSLOTracker(0.99, nil) },
		"zero-tick":      func() { NewSLOTracker(0.99, []SLOWindow{{Name: "0t"}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// burnStep drives an Alerter with a fixed (fast, slow) burn pair.
func burnStep(a *Alerter, at sim.Time, fast, slow float64) []AlertEvent {
	return a.Step(at, func(_ string, win int) float64 {
		if win == 0 {
			return fast
		}
		return slow
	})
}

func TestAlerterLifecycle(t *testing.T) {
	a := NewAlerter([]BurnRule{{
		Service: "svc", Severity: SeverityPage,
		FastWin: 0, SlowWin: 1, Threshold: 8,
		PendingTicks: 2, ResolveTicks: 2,
	}})
	// Burn over threshold on only one window: no alert.
	if evs := burnStep(a, 1, 20, 1); len(evs) != 0 {
		t.Fatalf("one-window breach emitted %v", evs)
	}
	// Both windows breach: pending first, firing after 2 consecutive.
	evs := burnStep(a, 2, 20, 10)
	if len(evs) != 1 || evs[0].State != AlertPending {
		t.Fatalf("first breach emitted %v, want pending", evs)
	}
	evs = burnStep(a, 3, 20, 10)
	if len(evs) != 1 || evs[0].State != AlertFiring {
		t.Fatalf("second breach emitted %v, want firing", evs)
	}
	if a.ActiveCount() != 1 {
		t.Fatalf("ActiveCount = %d, want 1", a.ActiveCount())
	}
	// One clear tick is not enough to resolve...
	if evs := burnStep(a, 4, 0, 0); len(evs) != 0 {
		t.Fatalf("first clear tick emitted %v", evs)
	}
	// ...the second is, and the rule re-arms.
	evs = burnStep(a, 5, 0, 0)
	if len(evs) != 1 || evs[0].State != AlertResolved {
		t.Fatalf("second clear tick emitted %v, want resolved", evs)
	}
	if a.ActiveCount() != 0 {
		t.Fatalf("ActiveCount after resolve = %d, want 0", a.ActiveCount())
	}
	// Re-fire after resolve.
	burnStep(a, 6, 20, 10)
	evs = burnStep(a, 7, 20, 10)
	if len(evs) != 1 || evs[0].State != AlertFiring {
		t.Fatalf("re-fire emitted %v, want firing", evs)
	}
	log := a.Log()
	if got := log.Count("svc", SeverityPage, AlertFiring); got != 2 {
		t.Errorf("firing count = %d, want 2", got)
	}
	if got := log.Count("svc", "", ""); got != int64(len(log.Events())) {
		t.Errorf("wildcard count = %d, want %d", got, len(log.Events()))
	}
}

func TestAlerterPendingStreakResets(t *testing.T) {
	a := NewAlerter([]BurnRule{{
		Service: "svc", Severity: SeverityTicket,
		FastWin: 0, SlowWin: 1, Threshold: 2,
		PendingTicks: 3, ResolveTicks: 10,
	}})
	burnStep(a, 1, 5, 5) // pending, streak 1
	burnStep(a, 2, 5, 5) // streak 2
	burnStep(a, 3, 0, 0) // clear tick breaks the streak
	burnStep(a, 4, 5, 5) // streak restarts at 1
	evs := burnStep(a, 5, 5, 5)
	if len(evs) != 0 {
		t.Fatalf("streak did not reset across clear tick: %v", evs)
	}
	evs = burnStep(a, 6, 5, 5)
	if len(evs) != 1 || evs[0].State != AlertFiring {
		t.Fatalf("want firing on third consecutive breach, got %v", evs)
	}
}

func TestAlertLogBytesFixedFormat(t *testing.T) {
	a := NewAlerter([]BurnRule{{
		Service: "svc", Severity: SeverityPage,
		FastWin: 0, SlowWin: 1, Threshold: 1,
		PendingTicks: 1, ResolveTicks: 1,
	}})
	burnStep(a, 100, 2.5, 1.5)
	got := string(a.Log().Bytes())
	want := "at=100 service=svc severity=page state=pending fast=2.5 slow=1.5\n" +
		"at=100 service=svc severity=page state=firing fast=2.5 slow=1.5\n"
	if got != want {
		t.Errorf("log bytes:\n%q\nwant:\n%q", got, want)
	}
}

func TestCorrelateRanksScheduledFirst(t *testing.T) {
	firing := AlertEvent{At: 1000, Service: "svc", Severity: SeverityPage, State: AlertFiring}
	events := []CausalEvent{
		{At: 900, Kind: "failover", Subject: "n1"},
		{At: 910, Kind: "failover", Subject: "n2"},
		{At: 920, Kind: "failover", Subject: "n3"},
		{At: 950, Kind: "kill", Subject: "n4", Scheduled: true},
		{At: 2000, Kind: "kill", Subject: "late", Scheduled: true}, // after the firing
		{At: 10, Kind: "kill", Subject: "early", Scheduled: true},  // before the lookback
	}
	pms := Correlate([]AlertEvent{firing}, events, 500)
	if len(pms) != 1 {
		t.Fatalf("got %d postmortems, want 1", len(pms))
	}
	pm := pms[0]
	if !pm.Scheduled() {
		t.Fatal("postmortem not attributed to a scheduled fault")
	}
	if len(pm.Causes) != 2 {
		t.Fatalf("got %d causes, want 2: %+v", len(pm.Causes), pm.Causes)
	}
	// Scheduled ranks above the more numerous unscheduled failovers.
	if !pm.Causes[0].Scheduled || pm.Causes[0].Kind != "kill" || pm.Causes[0].Count != 1 {
		t.Errorf("top cause = %+v, want the scheduled kill", pm.Causes[0])
	}
	if pm.Causes[1].Kind != "failover" || pm.Causes[1].Count != 3 {
		t.Errorf("second cause = %+v, want failover x3", pm.Causes[1])
	}
	// Pending/resolved transitions produce no postmortems.
	quiet := Correlate([]AlertEvent{{At: 1000, Service: "svc", State: AlertResolved}}, events, 500)
	if len(quiet) != 0 {
		t.Errorf("non-firing transition correlated: %+v", quiet)
	}
}

func TestCorrelateEmptyWindow(t *testing.T) {
	firing := AlertEvent{At: 1000, Service: "svc", Severity: SeverityTicket, State: AlertFiring}
	pms := Correlate([]AlertEvent{firing}, nil, 500)
	if len(pms) != 1 || len(pms[0].Causes) != 0 || pms[0].Scheduled() {
		t.Fatalf("empty-window postmortem = %+v", pms)
	}
	out := string(RenderTimeline(pms))
	if !strings.Contains(out, "cause unknown") {
		t.Errorf("timeline lacks unknown-cause marker:\n%s", out)
	}
}

func TestRenderTimeline(t *testing.T) {
	pms := Correlate(
		[]AlertEvent{{At: 7_500_000_000, Service: "svc", Severity: SeverityPage,
			State: AlertFiring, BurnFast: 35, BurnSlow: 9}},
		[]CausalEvent{
			{At: 7_000_000_000, Kind: "thermal-set", Subject: "node-1", Detail: "arg=6000", Scheduled: true},
			{At: 7_100_000_000, Kind: "thermal-set", Subject: "node-2", Detail: "arg=6000", Scheduled: true},
		},
		1_000_000_000)
	out := string(RenderTimeline(pms))
	for _, want := range []string{
		"POSTMORTEM svc page firing @7.500ms",
		"[scheduled] thermal-set x2",
		"e.g. node-1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline lacks %q:\n%s", want, out)
		}
	}
}

// TestTraceSLOAlertCats verifies the new taxonomy end to end: slo and
// alert instants recorded through a process validate under a required
// category set that includes them.
func TestTraceSLOAlertCats(t *testing.T) {
	rec := NewRecorder()
	tr := rec.Process("fleet").Track("ctrl")
	tr.Add(Instant(CatSLO, "burn:svc", 100))
	tr.Add(Instant(CatAlert, "firing:svc", 200))
	var buf strings.Builder
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateTrace([]byte(buf.String()), []Cat{CatSLO, CatAlert})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ByCat[string(CatSLO)] != 1 || stats.ByCat[string(CatAlert)] != 1 {
		t.Errorf("ByCat = %v, want one slo and one alert event", stats.ByCat)
	}
	// A trace without alert events must fail a requirement that
	// includes the category.
	rec2 := NewRecorder()
	rec2.Process("fleet").Track("ctrl").Add(Instant(CatSLO, "burn:svc", 100))
	var buf2 strings.Builder
	if err := rec2.WriteTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace([]byte(buf2.String()), []Cat{CatSLO, CatAlert}); err == nil {
		t.Error("ValidateTrace accepted a trace missing the alert category")
	}
}
