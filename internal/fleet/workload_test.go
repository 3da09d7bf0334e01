package fleet

import "testing"

// TestWorkloadValidation: a Workload built outside the package gets an
// error, not a panic, for every input it cannot run, and one without a
// script runs its stages.
func TestWorkloadValidation(t *testing.T) {
	valid := mustWorkload(t)(ChaosWorkload(4, 1))
	for name, edit := range map[string]func(w *Workload){
		"no nodes":         func(w *Workload) { w.Nodes = 0 },
		"zero window":      func(w *Workload) { w.Window = 0 },
		"negative windows": func(w *Workload) { w.Windows = -1 },
		"negative warm-up": func(w *Workload) { w.Warmup = -1 },
		"no warm-up":       func(w *Workload) { w.Warmup = 0 },
		"no traffic":       func(w *Workload) { w.Traffic = nil },
		"no services":      func(w *Workload) { w.Services = nil },
		"budget, no Arm":   func(w *Workload) { w.Arm = nil; w.Budget = 2 },
	} {
		w := valid
		edit(&w)
		if _, err := w.Commission(); err == nil {
			t.Errorf("%s: Commission accepted it", name)
		}
	}

	w := valid
	w.Windows, w.Arm = 1, nil
	run, err := w.Start(buildWorkload(w)(t, w.Config))
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Script(0); err != nil {
		t.Fatal(err)
	}
	if st, deltas, err := run.Serve(0); err != nil || st.Served == 0 || deltas[0].Served != st.Served {
		t.Errorf("window: %+v, deltas %+v, err %v", st, deltas, err)
	}
}
