// Command perfbench drives the fleet twin through one seeded workload
// and reports what it costs on the host: wall and CPU time and heap
// allocations per simulated packet, set-up time, and memory. With
// -trace 1 it reports per-layer numbers instead: the host time of each
// public call the window loop makes, plus replays of each layer on
// inputs taken from the run (see README.md).
//
// Every run checks the simulated outputs: per-window conservation, and
// a digest of every window's statistics and the control-plane record
// that must repeat across rounds and match the one recorded for the
// seed in digests.json. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the host-side metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"wall_ns_per_pkt", "ns"},
	{"cpu_ns_per_pkt", "ns"},
	{"allocs_per_pkt", "count"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// sim is the first round's simulated outputs, printed for reading.
	sim simOutputs
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every fleet to self-test size.
	toy bool
	// want is the digest the run must reproduce ("" checks only that
	// every round agrees).
	want string
}

// Recorded sim digests by workload and seed.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string, seed int64) (string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return all[workload][strconv.FormatInt(seed, 10)], nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: lb-steady-1k, lb-storm-300 or mix-churn-1k")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure for at least this long")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", trace))
	}
	o.trace = trace == 1
	want, err := recordedDigest(o.workload, o.seed)
	if err != nil {
		fatal(err)
	}
	o.want = want
	res, err := run(o, os.Stderr)
	if err != nil {
		fatal(err)
	}
	for _, v := range []any{map[string]any{"stamp": readStamp(o), "sim": res.sim}, res} {
		out, err := json.Marshal(v)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// roundStats is one round: set-up, then the measured windows.
type roundStats struct {
	setup, wall, cpu time.Duration
	allocs           uint64
	out              simOutputs
	violation        string
	// spans is set on traced rounds.
	spans *spans
}

// run measures rounds until o.seconds have passed and at least three
// rounds (two in a traced run) are measured, then reduces them. Each
// round builds a fresh fleet from the seed, so every round does
// identical simulated work. Round 0 is a warm-up that pays the
// process's one-time costs (code and heap growth); it is checked but
// not reduced. A traced run then alternates untraced and traced rounds
// and ends on a traced one.
func run(o options, log io.Writer) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p, err := w.build(o.seed, o.toy)
	if err != nil {
		return nil, err
	}
	models, err := hostModels(p)
	if err != nil {
		return nil, fmt.Errorf("%s: probe catalog: %w", w.name, err)
	}
	minRounds := 3
	if o.trace {
		minRounds = 2
	}
	start := time.Now()
	var rounds []*roundStats
	var last *fleetRun
	for i := 0; ; i++ {
		traced := o.trace && i > 0 && i%2 == 0
		last = nil // let the previous fleet go before building the next
		rs, f, err := runRound(p, models, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rounds = append(rounds, rs)
		last = f
		fmt.Fprintf(log, "round %d traced=%t setup=%.3fs wall=%.3fs pkts=%d wall_ns/pkt=%.1f digest=%s\n",
			i, traced, rs.setup.Seconds(), rs.wall.Seconds(), rs.out.Sent,
			float64(rs.wall.Nanoseconds())/float64(rs.out.Sent), rs.out.Digest)
		done := i >= minRounds && time.Since(start).Seconds() >= o.seconds
		if done && (!o.trace || traced) {
			break
		}
	}

	res := &result{Correct: true, sim: rounds[0].out}
	for _, r := range rounds {
		res.Attempted += r.out.Sent
		res.Failed += r.out.Dropped
		if r.violation != "" {
			res.Correct = false
			fmt.Fprintf(log, "output check failed: %s\n", r.violation)
		}
		if r.out.Digest != rounds[0].out.Digest {
			res.Correct = false
			fmt.Fprintf(log, "sim digest %s differs from the first round's %s\n", r.out.Digest, rounds[0].out.Digest)
		}
	}
	if o.want != "" && rounds[0].out.Digest != o.want {
		res.Correct = false
		fmt.Fprintf(log, "sim digest %s, recorded %s\n", rounds[0].out.Digest, o.want)
	}

	specs := endToEnd
	if o.trace {
		specs = perLayer
		if res.Metrics, err = layerMetrics(rounds[1:], last); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		res.Metrics = endToEndMetrics(rounds[1:], last)
	}
	settle(res, specs, !o.trace, log)
	return res, nil
}

// runRound sets up one fleet and drives its measured windows, timing
// the whole window loop: inject, prepare, serve, barrier and the output
// checks.
func runRound(p *plan, models []string, traced bool) (*roundStats, *fleetRun, error) {
	var sp *spans
	if traced {
		sp = &spans{}
	}
	t0 := time.Now()
	f, err := setUp(p, models, sp)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	rs := &roundStats{setup: time.Since(t0), spans: sp}
	// Set-up garbage is collected before the clock starts, so every
	// round's window loop begins from the same heap.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	w0 := time.Now()
	for w := 0; w < p.windows; w++ {
		if err := f.window(w, sp); err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", w, err)
		}
	}
	rs.wall = time.Since(w0)
	rs.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	rs.allocs = m1.Mallocs - m0.Mallocs
	f.finish()
	rs.out, rs.violation = f.out, f.violation
	return rs, f, nil
}

func endToEndMetrics(rounds []*roundStats, last *fleetRun) map[string]metric {
	perPkt := func(v func(r *roundStats) float64) float64 {
		return median(rounds, func(r *roundStats) float64 { return v(r) / float64(r.out.Sent) })
	}
	m := map[string]metric{
		"wall_ns_per_pkt": {perPkt(func(r *roundStats) float64 { return float64(r.wall.Nanoseconds()) }), "ns"},
		"cpu_ns_per_pkt":  {perPkt(func(r *roundStats) float64 { return float64(r.cpu.Nanoseconds()) }), "ns"},
		"allocs_per_pkt":  {perPkt(func(r *roundStats) float64 { return float64(r.allocs) }), "count"},
		"setup_s":         {median(rounds, func(r *roundStats) float64 { return r.setup.Seconds() }), "s"},
	}
	// The last round's fleet stays reachable: its footprint is the live
	// heap.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last)
	m["heap_live_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	m["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
	return m
}

// settle fails the run closed unless every declared metric was emitted
// with its unit and a finite value (and, for end-to-end metrics, a
// positive one). A failed run counts every packet as failed.
func settle(res *result, specs []metricSpec, positive bool, log io.Writer) {
	if err := validate(res.Metrics, specs, positive); err != nil {
		res.Correct = false
		fmt.Fprintf(log, "metrics: %v\n", err)
		for name, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				delete(res.Metrics, name)
			}
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
}

func validate(m map[string]metric, specs []metricSpec, positive bool) error {
	if len(m) != len(specs) {
		return fmt.Errorf("%d metrics emitted, %d declared", len(m), len(specs))
	}
	for _, s := range specs {
		v, ok := m[s.name]
		switch {
		case !ok:
			return fmt.Errorf("%s missing", s.name)
		case v.Unit != s.unit:
			return fmt.Errorf("%s in %q, declared %q", s.name, v.Unit, s.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("%s = %v", s.name, v.Value)
		case positive && v.Value <= 0:
			return fmt.Errorf("%s = %v, want > 0", s.name, v.Value)
		}
	}
	return nil
}

func median(rounds []*roundStats, v func(r *roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = v(r)
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// cpuTime is the process's user+system CPU time, every thread and the
// garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM); 0 when the
// kernel does not report it, which fails validation.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stamp identifies the build and the machine a result was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	Platform   string `json:"goos_goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

// readStamp reads the stamp locally: the commit from the binary's VCS
// build info ("unknown" when built outside a repository), the rest from
// the runtime and /proc/cpuinfo.
func readStamp(o options) stamp {
	s := stamp{
		Commit: "unknown", Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown",
		Workload: o.workload, Seed: o.seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, kv := range bi.Settings {
			switch {
			case kv.Key == "vcs.revision":
				rev = kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			s.Commit = rev + dirty
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}
