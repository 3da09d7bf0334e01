package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The metrics registry is read-through: a metric registers a callback
// over the owning subsystem's live counters (typically its public stats
// accessor) instead of maintaining a second copy. Nothing touches the
// serving hot path — counters keep incrementing plain int64 fields
// where they live today, and the registry reads them only at snapshot
// time, so drill JSON, Prometheus text and the accessors read one
// source and can never disagree.

// Summary is a quantile snapshot a summary metric's callback returns,
// typically rendered from a metrics.Histogram.
type Summary struct {
	Count int64
	Sum   float64
	P50   float64
	P99   float64
	Max   float64
}

// HistBucket is one cumulative bucket of a histogram snapshot: the
// number of samples at or below the upper bound LE.
type HistBucket struct {
	LE    float64
	Count int64
}

// HistSnapshot is a native-histogram snapshot a histogram metric's
// callback returns: cumulative buckets in ascending LE order (the
// implicit +Inf bucket is Count), plus exact sum and count. Typically
// rendered from a metrics.Histogram via CumBuckets.
type HistSnapshot struct {
	Buckets []HistBucket
	Sum     float64
	Count   int64
}

// metric kinds (Prometheus TYPE line values).
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindSummary   = "summary"
	kindHistogram = "histogram"
)

// series is one registered time series: a name, optional per-series
// labels, and the read callback.
type series struct {
	name   string
	labels string // pre-rendered `k="v",...`, sorted; "" when unlabeled
	readF  func() float64
	readS  func() Summary
	readH  func() HistSnapshot
}

// metricFamily groups the series of one metric name with its metadata.
type metricFamily struct {
	name   string
	help   string
	kind   string
	series []*series
}

// Registry is a named-metric registry. Registration and snapshotting
// are mutex-guarded; the serving hot path never touches it.
type Registry struct {
	mu       sync.Mutex
	families map[string]*metricFamily
	order    []string
	// constLabels render into every series (e.g. case="budgeted-derived"
	// in the chaos drill's per-case registries).
	constLabels string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metricFamily)}
}

// SetConstLabels attaches labels rendered into every series of this
// registry (the chaos drill tags each case's registry with its name).
func (r *Registry) SetConstLabels(kv map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.constLabels = renderLabels(kv)
}

// renderLabels renders a label map as `k="v",...` with sorted keys.
func renderLabels(kv map[string]string) string {
	if len(kv) == 0 {
		return ""
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register adds one series, creating its family on first use.
// Duplicate (name, labels) registration panics: it is a wiring bug.
func (r *Registry) register(name, labels, help, kind string, readF func() float64, readS func() Summary, readH func() HistSnapshot) {
	if name == "" {
		panic("obs: metric needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &metricFamily{name: name, help: help, kind: kind}
		r.families[name] = fam
		r.order = append(r.order, name)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, fam.kind))
	}
	for _, s := range fam.series {
		if s.labels == labels {
			panic(fmt.Sprintf("obs: duplicate metric %s{%s}", name, labels))
		}
	}
	fam.series = append(fam.series, &series{name: name, labels: labels, readF: readF, readS: readS, readH: readH})
}

// Counter registers a monotonic counter read from the callback.
func (r *Registry) Counter(name, help string, read func() int64) {
	r.register(name, "", help, kindCounter, func() float64 { return float64(read()) }, nil, nil)
}

// CounterL registers a labeled counter series.
func (r *Registry) CounterL(name string, labels map[string]string, help string, read func() int64) {
	r.register(name, renderLabels(labels), help, kindCounter,
		func() float64 { return float64(read()) }, nil, nil)
}

// Gauge registers a gauge read from the callback.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.register(name, "", help, kindGauge, read, nil, nil)
}

// GaugeL registers a labeled gauge series.
func (r *Registry) GaugeL(name string, labels map[string]string, help string, read func() float64) {
	r.register(name, renderLabels(labels), help, kindGauge, read, nil, nil)
}

// SummaryM registers a quantile summary read from the callback.
func (r *Registry) SummaryM(name, help string, read func() Summary) {
	r.register(name, "", help, kindSummary, nil, read, nil)
}

// HistogramM registers a native Prometheus histogram read from the
// callback: rendered as cumulative `_bucket{le="..."}` lines plus
// `_sum`/`_count`, so external scrapers see the same distribution the
// summary quantiles are computed from.
func (r *Registry) HistogramM(name, help string, read func() HistSnapshot) {
	r.register(name, "", help, kindHistogram, nil, nil, read)
}

// Values snapshots every series into a flat map for embedding in
// drill JSON: counters and gauges keyed by name (plus {labels} when
// labeled), summaries expanded into _count/_sum/quantile entries.
// encoding/json renders map keys sorted, so embeddings are
// deterministic.
func (r *Registry) Values() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, name := range r.order {
		for _, s := range r.families[name].series {
			key := name
			if s.labels != "" {
				key = name + "{" + s.labels + "}"
			}
			if s.readF != nil {
				out[key] = s.readF()
				continue
			}
			if s.readH != nil {
				// Histograms expand to count/sum only: per-bucket
				// entries would bloat drill JSON without adding
				// information the .prom artifact doesn't carry.
				h := s.readH()
				out[key+"_count"] = float64(h.Count)
				out[key+"_sum"] = h.Sum
				continue
			}
			sum := s.readS()
			out[key+"_count"] = float64(sum.Count)
			out[key+"_sum"] = sum.Sum
			out[key+`{quantile="0.5"}`] = sum.P50
			out[key+`{quantile="0.99"}`] = sum.P99
			out[key+`{quantile="1"}`] = sum.Max
		}
	}
	return out
}

// WriteProm merges several registries into one Prometheus text
// exposition — the chaos drill writes its per-case registries (each
// carrying a case const label) as one scrape document. HELP/TYPE
// lines appear once per metric name, in first-registration order.
func WriteProm(w io.Writer, regs ...*Registry) error {
	bw := bufio.NewWriter(w)
	seen := make(map[string]bool)
	var names []string
	for _, r := range regs {
		r.mu.Lock()
		for _, n := range r.order {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		r.mu.Unlock()
	}
	for _, name := range names {
		wroteHeader := false
		for _, r := range regs {
			r.mu.Lock()
			fam := r.families[name]
			if fam == nil {
				r.mu.Unlock()
				continue
			}
			if !wroteHeader {
				wroteHeader = true
				if fam.help != "" {
					fmt.Fprintf(bw, "# HELP %s %s\n", name, fam.help)
				}
				fmt.Fprintf(bw, "# TYPE %s %s\n", name, fam.kind)
			}
			// Series render sorted by label string within the family,
			// so same-seed runs emit byte-identical expositions
			// regardless of registration order.
			ordered := make([]*series, len(fam.series))
			copy(ordered, fam.series)
			sort.SliceStable(ordered, func(i, j int) bool {
				return ordered[i].labels < ordered[j].labels
			})
			for _, s := range ordered {
				writeSeries(bw, s, r.constLabels)
			}
			r.mu.Unlock()
		}
	}
	return bw.Flush()
}

// joinLabels merges const and per-series label strings.
func joinLabels(parts ...string) string {
	var out []string
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

// promFloat renders a sample value.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSeries renders one series' sample lines.
func writeSeries(bw *bufio.Writer, s *series, constLabels string) {
	base := joinLabels(constLabels, s.labels)
	nameWith := func(extra string) string {
		l := joinLabels(base, extra)
		if l == "" {
			return s.name
		}
		return s.name + "{" + l + "}"
	}
	suffixed := func(suffix, extra string) string {
		l := joinLabels(base, extra)
		if l == "" {
			return s.name + suffix
		}
		return s.name + suffix + "{" + l + "}"
	}
	if s.readF != nil {
		fmt.Fprintf(bw, "%s %s\n", nameWith(""), promFloat(s.readF()))
		return
	}
	if s.readH != nil {
		h := s.readH()
		for _, b := range h.Buckets {
			fmt.Fprintf(bw, "%s %d\n", suffixed("_bucket", `le="`+promFloat(b.LE)+`"`), b.Count)
		}
		fmt.Fprintf(bw, "%s %d\n", suffixed("_bucket", `le="+Inf"`), h.Count)
		fmt.Fprintf(bw, "%s %s\n", suffixed("_sum", ""), promFloat(h.Sum))
		fmt.Fprintf(bw, "%s %d\n", suffixed("_count", ""), h.Count)
		return
	}
	sum := s.readS()
	fmt.Fprintf(bw, "%s %s\n", nameWith(`quantile="0.5"`), promFloat(sum.P50))
	fmt.Fprintf(bw, "%s %s\n", nameWith(`quantile="0.99"`), promFloat(sum.P99))
	fmt.Fprintf(bw, "%s %s\n", nameWith(`quantile="1"`), promFloat(sum.Max))
	fmt.Fprintf(bw, "%s %s\n", suffixed("_sum", ""), promFloat(sum.Sum))
	fmt.Fprintf(bw, "%s %d\n", suffixed("_count", ""), sum.Count)
}
