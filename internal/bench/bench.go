// Package bench regenerates every table and figure of the paper's
// evaluation (§2 motivation and §5). Each experiment returns a
// metrics.Figure or metrics.Table whose series/rows mirror what the
// paper reports; cmd/harmonia-bench prints them and EXPERIMENTS.md
// records paper-vs-measured values. The fleet1–2 figures (scale-out,
// failover recovery) live here too, as does the fleet3 control-plane
// overhead sweep, which harmonia-fleet -scenario bench runs and which
// measures host wall-clock time rather than simulated time; the fleet4+
// drills judge themselves in internal/fleet.
package bench

import (
	"fmt"
	"sort"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID matches the paper artifact ("fig10a", "table3", ...).
	ID string
	// Title describes what the artifact shows.
	Title string
	// Run regenerates the artifact.
	Run func() (fmt.Stringer, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Framework capability comparison", Run: wrapFig(Table1)},
		{ID: "table2", Title: "Applications and devices", Run: wrapFig(Table2)},
		{ID: "fig3a", Title: "Shell vs role development workloads", Run: wrapFig(Fig3a)},
		{ID: "fig3b", Title: "Vendor IP interface/config differences", Run: wrapFig(Fig3b)},
		{ID: "fig3c", Title: "Heterogeneous FPGA fleet growth", Run: wrapFig(Fig3c)},
		{ID: "fig3d", Title: "Per-shell init sequence differences", Run: wrapFig(Fig3d)},
		{ID: "fig10a", Title: "MAC native vs wrapped", Run: wrapFig(Fig10a)},
		{ID: "fig10b", Title: "PCIe DMA native vs wrapped", Run: wrapFig(Fig10b)},
		{ID: "fig10c", Title: "DDR native vs wrapped", Run: wrapFig(Fig10c)},
		{ID: "fig11", Title: "Shell tailoring resource savings", Run: wrapFig(Fig11)},
		{ID: "fig12", Title: "Role configuration reduction", Run: wrapFig(Fig12)},
		{ID: "fig13", Title: "Software modification reduction", Run: wrapFig(Fig13)},
		{ID: "fig14", Title: "RBB reuse across vendors and chips", Run: wrapFig(Fig14)},
		{ID: "fig15", Title: "Application shell reuse across FPGAs", Run: wrapFig(Fig15)},
		{ID: "fig16", Title: "Wrapper and UCK resource overheads", Run: wrapFig(Fig16)},
		{ID: "fig17a", Title: "Sec-Gateway performance", Run: wrapFig(Fig17a)},
		{ID: "fig17b", Title: "Layer-4 LB performance", Run: wrapFig(Fig17b)},
		{ID: "fig17c", Title: "Host Network performance", Run: wrapFig(Fig17c)},
		{ID: "fig17d", Title: "Retrieval performance", Run: wrapFig(Fig17d)},
		{ID: "fig18a", Title: "Framework shell resource usage", Run: wrapFig(Fig18a)},
		{ID: "fig18b", Title: "Matrix multiplication performance", Run: wrapFig(Fig18b)},
		{ID: "fig18c", Title: "Database access performance", Run: wrapFig(Fig18c)},
		{ID: "fig18d", Title: "TCP transmission performance", Run: wrapFig(Fig18d)},
		{ID: "fleet1", Title: "Fleet scale-out aggregate throughput", Run: wrapFig(FleetScaleOut)},
		{ID: "fleet2", Title: "Fleet failover recovery time", Run: wrapFig(FleetRecovery)},
		{ID: "table3", Title: "FPGA devices supported per framework", Run: wrapFig(Table3)},
		{ID: "table4", Title: "Register vs command configuration items", Run: wrapFig(Table4)},
	}
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

func wrapFig[T fmt.Stringer](f func() (T, error)) func() (fmt.Stringer, error) {
	return func() (fmt.Stringer, error) {
		v, err := f()
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// sortedKeys returns a map's keys sorted.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
