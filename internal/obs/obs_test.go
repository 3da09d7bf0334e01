package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"harmonia/internal/sim"
)

func TestNilBufferIsSafe(t *testing.T) {
	var b *Buffer
	b.Add(Span(CatPacket, "route", 0, sim.Microsecond))
	b.Add(Instant(CatFault, "kill", sim.Microsecond))
	if b.Len() != 0 || b.Dropped() != 0 {
		t.Fatalf("nil buffer reported state: len=%d dropped=%d", b.Len(), b.Dropped())
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	e := Span(CatPacket, "route", 10, 5)
	if e.Dur != 0 {
		t.Fatalf("negative span duration not clamped: %v", e.Dur)
	}
}

func buildRecording(rec *Recorder) {
	p := rec.Process("case-a")
	ctrl := p.Track("control")
	shard := p.Track("shard-00")
	ctrl.Add(Instant(CatHeartbeat, "hb-sweep", 50*sim.Microsecond))
	for i := 0; i < 4; i++ {
		e := Span(CatPacket, "route", sim.Time(i)*sim.Microsecond, sim.Time(i)*sim.Microsecond+300*sim.Nanosecond)
		e.K1, e.V1 = "node", "fpga-00"
		e.K2, e.V2 = "bytes", 1024
		shard.Add(e)
	}
	ctrl.Add(Span(CatPRLoad, "pr-load", 2*sim.Microsecond, 2*sim.Millisecond))
	ctrl.Add(Instant(CatFault, "kill", 60*sim.Microsecond))
	ctrl.Add(Span(CatMigration, "replay", 70*sim.Microsecond, 80*sim.Microsecond))
}

func TestWriteTraceValidatesAndIsDeterministic(t *testing.T) {
	render := func() []byte {
		rec := NewRecorder()
		buildRecording(rec)
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical recordings rendered differently:\n%s\nvs\n%s", a, b)
	}
	stats, err := ValidateTrace(a, []Cat{CatPacket, CatPRLoad, CatHeartbeat, CatMigration, CatFault})
	if err != nil {
		t.Fatalf("trace failed validation: %v\n%s", err, a)
	}
	if stats.ByCat["packet"] != 4 {
		t.Fatalf("want 4 packet events, got %v", stats.ByCat)
	}
	// The export must be plain JSON a generic parser round-trips.
	var doc map[string]any
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not generic JSON: %v", err)
	}
}

func TestTsRendersFixedPointMicroseconds(t *testing.T) {
	rec := NewRecorder()
	tr := rec.Process("p").Track("t")
	tr.Add(Instant(CatFault, "x", 1_234_567)) // 1.234567 µs in ps
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ts":1.234567`) {
		t.Fatalf("ps→µs conversion wrong:\n%s", buf.String())
	}
}

func TestFlightRecorderKeepsLastN(t *testing.T) {
	rec := NewFlightRecorder(8)
	tr := rec.Process("p").Track("t")
	for i := 0; i < 20; i++ {
		tr.Add(Instant(CatPacket, "e", sim.Time(i)))
	}
	if tr.Len() != 8 {
		t.Fatalf("ring holds %d events, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("ring dropped %d events, want 12", tr.Dropped())
	}
	evs := rec.Events()
	if len(evs) != 8 {
		t.Fatalf("export has %d events, want 8", len(evs))
	}
	for i, e := range evs {
		if e.Ts != sim.Time(12+i) {
			t.Fatalf("ring order wrong at %d: ts=%v", i, e.Ts)
		}
	}
}

// TestMoveToReplaysAsAdd: events staged in a private buffer and moved
// into a ring track leave it exactly as adding them directly would, and
// the staging buffer empties for reuse.
func TestMoveToReplaysAsAdd(t *testing.T) {
	direct := NewFlightRecorder(5).Process("p").Track("t")
	staged := NewFlightRecorder(5).Process("p").Track("t")
	var stage Buffer
	for i := 0; i < 13; i++ {
		e := Instant(CatPacket, "e", sim.Time(i))
		direct.Add(e)
		stage.Add(e)
		if i%4 == 3 {
			stage.MoveTo(staged)
			if stage.Len() != 0 {
				t.Fatalf("staging buffer holds %d events after MoveTo", stage.Len())
			}
		}
	}
	stage.MoveTo(staged)
	if !slices.Equal(staged.ordered(), direct.ordered()) || staged.Dropped() != direct.Dropped() {
		t.Fatalf("moved track %v (dropped %d), direct %v (dropped %d)",
			staged.ordered(), staged.Dropped(), direct.ordered(), direct.Dropped())
	}
	stage.Add(Instant(CatPacket, "e", 0))
	stage.MoveTo(nil)
	if stage.Len() != 0 {
		t.Fatal("MoveTo(nil) kept the events")
	}
}

func TestValidateTraceRejectsBackwardTs(t *testing.T) {
	bad := `{"traceEvents":[
	 {"name":"a","cat":"packet","ph":"i","s":"t","ts":2.0,"pid":1,"tid":1},
	 {"name":"b","cat":"packet","ph":"i","s":"t","ts":1.0,"pid":1,"tid":1}]}`
	if _, err := ValidateTrace([]byte(bad), nil); err == nil {
		t.Fatal("backwards ts not rejected")
	}
}

func TestValidateTraceRejectsMissingFields(t *testing.T) {
	for _, bad := range []string{
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"cat":"x","ph":"i","ts":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		`{"traceEvents":[{"name":"a","ph":"?","ts":1,"pid":1,"tid":1}]}`,
	} {
		if _, err := ValidateTrace([]byte(bad), nil); err == nil {
			t.Fatalf("accepted invalid trace %s", bad)
		}
	}
}

func TestRegistryReadThrough(t *testing.T) {
	var served int64
	reg := NewRegistry()
	reg.Counter("served_total", "served packets", func() int64 { return served })
	reg.Gauge("temp_c", "die temperature", func() float64 { return 42.5 })
	served = 7
	if v := reg.Values()["served_total"]; v != 7 {
		t.Fatalf("counter read %v before increment visible, want 7", v)
	}
	served = 9
	if v := reg.Values()["served_total"]; v != 9 {
		t.Fatalf("read-through counter stale: %v", v)
	}
	if _, ok := reg.Values()["missing"]; ok {
		t.Fatal("unknown metric reported a value")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Counter("x_total", "", func() int64 { return 0 })
}

func TestWritePromFormat(t *testing.T) {
	reg := NewRegistry()
	reg.SetConstLabels(map[string]string{"case": "budgeted"})
	reg.Counter("harmonia_router_sent_total", "packets offered", func() int64 { return 11 })
	reg.GaugeL("harmonia_fleet_nodes", map[string]string{"state": "healthy"}, "nodes by state",
		func() float64 { return 3 })
	reg.SummaryM("harmonia_route_latency_ps", "routed-packet latency", func() Summary {
		return Summary{Count: 5, Sum: 100, P50: 10, P99: 40, Max: 41}
	})
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP harmonia_router_sent_total packets offered",
		"# TYPE harmonia_router_sent_total counter",
		`harmonia_router_sent_total{case="budgeted"} 11`,
		`harmonia_fleet_nodes{case="budgeted",state="healthy"} 3`,
		"# TYPE harmonia_route_latency_ps summary",
		`harmonia_route_latency_ps{case="budgeted",quantile="0.99"} 40`,
		`harmonia_route_latency_ps_sum{case="budgeted"} 100`,
		`harmonia_route_latency_ps_count{case="budgeted"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromMergesRegistries(t *testing.T) {
	mk := func(name string, v int64) *Registry {
		reg := NewRegistry()
		reg.SetConstLabels(map[string]string{"case": name})
		reg.Counter("sent_total", "sent", func() int64 { return v })
		return reg
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, mk("a", 1), mk("b", 2)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE sent_total counter") != 1 {
		t.Fatalf("TYPE line not deduplicated:\n%s", out)
	}
	for _, want := range []string{`sent_total{case="a"} 1`, `sent_total{case="b"} 2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.HistogramM("harmonia_lat_ps", "latency histogram", func() HistSnapshot {
		return HistSnapshot{
			Buckets: []HistBucket{{LE: 100, Count: 2}, {LE: 500, Count: 5}},
			Sum:     700, Count: 5,
		}
	})
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE harmonia_lat_ps histogram",
		`harmonia_lat_ps_bucket{le="100"} 2`,
		`harmonia_lat_ps_bucket{le="500"} 5`,
		`harmonia_lat_ps_bucket{le="+Inf"} 5`,
		"harmonia_lat_ps_sum 700",
		"harmonia_lat_ps_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram exposition missing %q:\n%s", want, out)
		}
	}
	// The +Inf bucket renders after the finite ones.
	if strings.Index(out, `le="500"`) > strings.Index(out, `le="+Inf"`) {
		t.Fatalf("buckets out of order:\n%s", out)
	}
	vals := reg.Values()
	if vals["harmonia_lat_ps_count"] != 5 || vals["harmonia_lat_ps_sum"] != 700 {
		t.Fatalf("Values snapshot wrong: %v", vals)
	}
}

func TestWritePromSortsSeriesByLabels(t *testing.T) {
	reg := NewRegistry()
	// Registered deliberately out of label order.
	for _, svc := range []string{"zeta", "alpha", "mid"} {
		svc := svc
		reg.GaugeL("harmonia_slo_burn_rate", map[string]string{"service": svc, "window": "2t"},
			"burn", func() float64 { return 1 })
	}
	var buf bytes.Buffer
	if err := WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	iAlpha := strings.Index(out, `service="alpha"`)
	iMid := strings.Index(out, `service="mid"`)
	iZeta := strings.Index(out, `service="zeta"`)
	if iAlpha < 0 || iMid < 0 || iZeta < 0 || !(iAlpha < iMid && iMid < iZeta) {
		t.Fatalf("series not sorted by label value:\n%s", out)
	}
}

func TestValuesExpandsSummaries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "", func() int64 { return 3 })
	reg.SummaryM("lat", "", func() Summary { return Summary{Count: 2, Sum: 9, P50: 4, P99: 5, Max: 5} })
	vals := reg.Values()
	if vals["c_total"] != 3 || vals["lat_count"] != 2 || vals[`lat{quantile="0.99"}`] != 5 {
		t.Fatalf("Values snapshot wrong: %v", vals)
	}
}
