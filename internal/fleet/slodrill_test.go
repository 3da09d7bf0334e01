package fleet

import (
	"strings"
	"testing"

	"harmonia/internal/obs"
)

// TestSLOEngineRules verifies rule derivation at service registration:
// latency-critical services with an availability objective get the
// fast page pair plus the slow ticket pair, bulk services only the
// ticket pair, and services without an objective no rules at all.
func TestSLOEngineRules(t *testing.T) {
	wl, _, err := CoResidencyWorkload(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, svcs := DefaultConfig(), wl.Services
	cfg.SLOWindowTicks, cfg.SlotRes = []int{2, 8, 24, 48}, coresSlotRes
	c, err := BuildCoResidentCluster(cfg, svcs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.SLOWindows()); got != 4 {
		t.Fatalf("SLOWindows = %d, want 4", got)
	}
	if name := c.SLOWindows()[0].Name; name != "2t" {
		t.Errorf("fastest window named %q, want 2t", name)
	}
	rules := map[string]map[obs.AlertSeverity]int{}
	for _, r := range c.AlertRules() {
		if rules[r.Service] == nil {
			rules[r.Service] = map[obs.AlertSeverity]int{}
		}
		rules[r.Service][r.Severity]++
	}
	for _, svc := range svcs {
		got := rules[svc.Name]
		switch {
		case svc.SLO.Availability <= 0:
			if len(got) != 0 {
				t.Errorf("service %s without objective has rules %v", svc.Name, got)
			}
		case svc.Class == ClassLatencyCritical:
			if got[obs.SeverityPage] != 1 || got[obs.SeverityTicket] != 1 {
				t.Errorf("lc service %s rules = %v, want one page + one ticket", svc.Name, got)
			}
		default:
			if got[obs.SeverityPage] != 0 || got[obs.SeverityTicket] != 1 {
				t.Errorf("bulk service %s rules = %v, want ticket only", svc.Name, got)
			}
		}
	}
	// Unknown services read as unburned budget, not as a panic.
	if b := c.BurnRate("nope", 0); b != 0 {
		t.Errorf("BurnRate(unknown) = %v, want 0", b)
	}
}

// TestSLODrill runs the fleet10 drill at its tentpole configuration:
// every acceptance gate the result evaluates must hold (attributed
// latency-critical firings, a silent fault-free control, resolution
// inside the recovery bound, byte-identical alert state across the
// quantum/worker sweep), and the evidence behind them must be
// self-consistent.
func TestSLODrill(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet10 drill replays the storm four times; skipped in -short")
	}
	res, err := SLODrill(DrillOptions{Devices: 120, Budget: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failures(); len(f) != 0 {
		t.Errorf("gates failed: %v\n%s\n%s", f, res.Timeline, res.AlertLog)
	}
	if res.FiringsTotal < res.FiringsLC {
		t.Errorf("FiringsTotal %d < FiringsLC %d", res.FiringsTotal, res.FiringsLC)
	}
	if len(res.Postmortems) != res.FiringsTotal {
		t.Errorf("%d postmortems for %d firings", len(res.Postmortems), res.FiringsTotal)
	}
	if !strings.Contains(res.Timeline, "POSTMORTEM") ||
		!strings.Contains(res.Timeline, "[scheduled]") {
		t.Errorf("timeline lacks attributed postmortems:\n%s", res.Timeline)
	}
	if len(res.Samples) == 0 {
		t.Fatal("drill recorded no windows")
	}
	// The alert log renders one line per transition, every firing
	// preceded by a pending line for the same service.
	if got := strings.Count(res.AlertLog, "state=firing"); got != res.FiringsTotal {
		t.Errorf("alert log has %d firing lines, result says %d", got, res.FiringsTotal)
	}
}
