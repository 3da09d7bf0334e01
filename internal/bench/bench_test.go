package bench

import (
	"strconv"
	"strings"
	"testing"

	"harmonia/internal/metrics"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, e.ID) {
				t.Errorf("%s output lacks its ID:\n%s", e.ID, s)
			}
			if len(s) < 40 {
				t.Errorf("%s output suspiciously short:\n%s", e.ID, s)
			}
		})
	}
}

func TestLookupAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 27 {
		t.Errorf("%d experiments, want 27", len(ids))
	}
	if _, err := Lookup("fig10a"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown ID should fail")
	}
}

// parseCell converts a table cell like "12.3" or "9.1x" to a float.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig3aShellDominates(t *testing.T) {
	fig, err := Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	shell, _ := fig.Find("shell")
	role, _ := fig.Find("role")
	if shell == nil || role == nil {
		t.Fatal("series missing")
	}
	for i, p := range shell.Points {
		if p.Y < 0.60 || p.Y > 0.92 {
			t.Errorf("app %d shell fraction %.2f outside 0.66-0.87 band", i, p.Y)
		}
		r, _ := role.Y(p.X)
		if diff := p.Y + r - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("fractions at %v do not sum to 1", p.X)
		}
	}
}

func TestFig3bDifferencesLarge(t *testing.T) {
	fig, err := Fig3b()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y < 10 {
				t.Errorf("%s diff at %v = %v, want tens-to-hundreds", s.Label, p.X, p.Y)
			}
		}
	}
}

func TestFig10WrapperPreservesThroughput(t *testing.T) {
	figs := []struct {
		id  string
		run func() (*metrics.Figure, error)
	}{
		{"fig10a", Fig10a},
		{"fig10b", Fig10b},
		{"fig10c", Fig10c},
	}
	for _, f := range figs {
		fig, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.id, err)
		}
		nat, ok1 := fig.Find("native-tpt")
		wrp, ok2 := fig.Find("wrapped-tpt")
		natL, ok3 := fig.Find("native-lat-ns")
		wrpL, ok4 := fig.Find("wrapped-lat-ns")
		if !ok1 || !ok2 || !ok3 || !ok4 {
			t.Fatalf("%s: series missing", f.id)
		}
		for _, p := range nat.Points {
			w, _ := wrp.Y(p.X)
			// Throughput within 2% of native.
			if w < p.Y*0.98 {
				t.Errorf("%s x=%v: wrapped tpt %.2f below native %.2f", f.id, p.X, w, p.Y)
			}
			// Latency: wrapped adds nanoseconds only.
			ln, _ := natL.Y(p.X)
			lw, _ := wrpL.Y(p.X)
			if lw < ln {
				t.Errorf("%s x=%v: wrapped latency below native", f.id, p.X)
			}
			if lw-ln > 100 {
				t.Errorf("%s x=%v: wrapper adds %.0fns, want tens of ns", f.id, p.X, lw-ln)
			}
		}
	}
}

func TestFig11SavingsBand(t *testing.T) {
	tab, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	// Savings column (last) for tailored rows must sit in roughly the
	// 3-25.1% band.
	for _, row := range tab.Rows[1:] {
		saving := parseCell(t, row[len(row)-1])
		if saving < 2 || saving > 35 {
			t.Errorf("%s LUT saving %.1f%% outside band", row[0], saving)
		}
	}
}

func TestFig12ReductionBand(t *testing.T) {
	tab, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio := parseCell(t, row[3])
		if ratio < 6 || ratio > 25 {
			t.Errorf("%s config reduction %.1fx outside the 8.8-19.8x band", row[0], ratio)
		}
	}
}

func TestFig13ReductionBand(t *testing.T) {
	tab, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		ratio := parseCell(t, row[3])
		if ratio < 40 || ratio > 200 {
			t.Errorf("%s software-mod reduction %sx far from the 88-107x band", row[0], row[3])
		}
	}
}

func TestFig14ReuseBands(t *testing.T) {
	tab, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		cv := parseCell(t, row[1])
		cc := parseCell(t, row[2])
		if cv < 0.60 || cv > 0.80 {
			t.Errorf("%s cross-vendor reuse %.2f outside 0.69-0.76 band", row[0], cv)
		}
		if cc < 0.80 || cc > 0.95 {
			t.Errorf("%s cross-chip reuse %.2f outside 0.84-0.93 band", row[0], cc)
		}
	}
}

func TestFig15ReuseBand(t *testing.T) {
	tab, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		r := parseCell(t, row[1])
		if r < 0.65 || r > 0.85 {
			t.Errorf("%s app shell reuse %.2f outside the 0.70-0.80 band", row[0], r)
		}
	}
}

func TestFig16OverheadBounds(t *testing.T) {
	tab, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		pct := parseCell(t, row[1])
		bound := 0.37
		if row[0] == "uck" {
			bound = 0.67
		}
		if pct > bound {
			t.Errorf("%s overhead %.3f%% exceeds the paper's %.2f%% bound", row[0], pct, bound)
		}
	}
}

func TestFig17HarmoniaMatchesNative(t *testing.T) {
	figs := []func() (*metrics.Figure, error){Fig17a, Fig17b, Fig17c, Fig17d}
	for i, run := range figs {
		fig, err := run()
		if err != nil {
			t.Fatalf("fig17[%d]: %v", i, err)
		}
		h, _ := fig.Find("harmonia-tpt")
		n, _ := fig.Find("native-tpt")
		hl, _ := fig.Find("harmonia-lat-us")
		nl, _ := fig.Find("native-lat-us")
		if h == nil || n == nil || hl == nil || nl == nil {
			t.Fatalf("fig17[%d]: series missing", i)
		}
		for _, p := range n.Points {
			ht, _ := h.Y(p.X)
			// Full throughput preserved (within 2%).
			if ht < p.Y*0.98 {
				t.Errorf("fig17[%d] x=%v: harmonia tpt %.2f below native %.2f", i, p.X, ht, p.Y)
			}
			// Latency increase below 1%.
			lh, _ := hl.Y(p.X)
			ln, _ := nl.Y(p.X)
			if lh < ln {
				t.Errorf("fig17[%d] x=%v: harmonia latency below native", i, p.X)
			}
			if ln > 0 && (lh-ln)/ln > 0.01 {
				t.Errorf("fig17[%d] x=%v: latency increase %.2f%%, want < 1%%", i, p.X, (lh-ln)/ln*100)
			}
		}
	}
}

func TestFig18aHarmoniaLeanest(t *testing.T) {
	tab, err := Fig18a()
	if err != nil {
		t.Fatal(err)
	}
	var harmoniaLUT float64
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
		if row[0] == "harmonia" {
			harmoniaLUT = parseCell(t, row[2])
		}
	}
	for name, row := range rows {
		if name == "harmonia" {
			continue
		}
		base := parseCell(t, row[2])
		saving := 1 - harmoniaLUT/base
		if saving < 0.03 || saving > 0.30 {
			t.Errorf("harmonia vs %s: saving %.1f%% outside the 3.5-14.9%% band (tolerance 3-30)",
				name, saving*100)
		}
	}
}

func TestFig18bParallelismScaling(t *testing.T) {
	fig, err := Fig18b()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		r4, _ := s.Y(4)
		r16, _ := s.Y(16)
		if ratio := r16 / r4; ratio < 3.5 || ratio > 4.1 {
			t.Errorf("%s x16/x4 = %.2f, want about 4", s.Label, ratio)
		}
	}
	// All frameworks comparable at each x.
	h, _ := fig.Find("harmonia")
	for _, s := range fig.Series {
		for _, p := range s.Points {
			hy, _ := h.Y(p.X)
			if diff := (p.Y - hy) / hy; diff > 0.05 || diff < -0.05 {
				t.Errorf("%s differs from harmonia by %.1f%% at x=%v", s.Label, diff*100, p.X)
			}
		}
	}
}

func TestFig18cSequentialWins(t *testing.T) {
	tab, err := Fig18c()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		random := parseCell(t, row[1])
		seq := parseCell(t, row[3])
		if seq <= random {
			t.Errorf("%s: sequential (%.1f) should beat random (%.1f)", row[0], seq, random)
		}
	}
}

func TestFig18dMonotone(t *testing.T) {
	fig, err := Fig18d()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y <= s.Points[i-1].Y {
				t.Errorf("%s not rising with packet size", s.Label)
				break
			}
		}
	}
}

func TestTable3Matrix(t *testing.T) {
	tab, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Harmonia column (last) must be all yes; in-house row must be
	// no/no/no/yes.
	for _, row := range tab.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("harmonia should support %s", row[0])
		}
	}
	inhouse := tab.Rows[2]
	if inhouse[1] != "no" || inhouse[2] != "no" || inhouse[3] != "no" {
		t.Errorf("in-house row wrong: %v", inhouse)
	}
}

func TestTable4Counts(t *testing.T) {
	tab, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	regs, cmds := tab.Rows[0], tab.Rows[1]
	want := [][2]string{{"84", "4"}, {"115", "5"}, {"60", "4"}}
	for i, w := range want {
		if regs[i+1] != w[0] || cmds[i+1] != w[1] {
			t.Errorf("column %d = %s/%s, want %s/%s", i, regs[i+1], cmds[i+1], w[0], w[1])
		}
	}
}

func TestAblationsTable(t *testing.T) {
	tab, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("ablation rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		factor := parseCell(t, row[4])
		if factor <= 1 {
			t.Errorf("%s: factor %.2f, the With configuration should win", row[0], factor)
		}
	}
	// Active-list scheduling must be the most dramatic win.
	for _, row := range tab.Rows {
		if row[0] == "active-queue-list" {
			if f := parseCell(t, row[4]); f < 50 {
				t.Errorf("active-list factor %.1f, want huge with 1024 queue slots", f)
			}
		}
	}
}

func TestTable1CapabilityMatrix(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r
	}
	// Harmonia: yes across the board.
	h := rows["harmonia"]
	for i := 1; i < 5; i++ {
		if h[i] != "yes" {
			t.Errorf("harmonia column %d = %s", i, h[i])
		}
	}
	// Baselines: single-vendor, monolithic shells, register interfaces.
	for _, name := range []string{"vitis", "oneapi", "coyote"} {
		r := rows[name]
		if r[1] != "no" || r[2] != "no" || r[4] != "no" {
			t.Errorf("%s capabilities = %v", name, r)
		}
	}
}

func TestTable2Setup(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	// 5 apps + 4 devices + 3 RBBs + 3 tasks.
	if len(tab.Rows) != 15 {
		t.Errorf("rows = %d, want 15", len(tab.Rows))
	}
	out := tab.String()
	for _, want := range []string{"sec-gateway", "bump-in-the-wire", "look-aside",
		"device-a", "XCVU35P", "HBM", "network", "monitoring"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}
