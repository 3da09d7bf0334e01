// Package obs is the fleet observability plane: a sim-time trace
// recorder and a unified metrics registry.
//
// The trace recorder captures spans and instant events stamped with
// picosecond simulation time and exports them as Chrome trace-event
// JSON, so BENCH artifacts open directly in Perfetto or
// chrome://tracing. Recording is designed for the control plane's
// determinism contract: each Buffer (one Perfetto "thread" track) is
// owned by exactly one goroutine between barriers — the same ownership
// discipline the router shards already follow — and the export merges
// buffers in a fixed order with a stable sort, so the same seed always
// produces byte-identical trace files.
//
// Every recording method is nil-safe: a nil *Buffer is the disabled
// state, and the hot path pays only a pointer compare (verified by
// BenchmarkRoutedPacket in internal/fleet). The flight-recorder mode
// bounds each track to a ring of the last N events, cheap enough to
// leave always-on so a failed gate can dump what just happened.
package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"sync"

	"harmonia/internal/sim"
)

// Cat classifies an event into the span taxonomy. Validators and the
// Perfetto UI group by category.
type Cat string

// The span taxonomy: one category per control-plane activity kind.
const (
	// CatPacket covers the datapath route→enqueue→serve spans and
	// tail-drop instants on the router shard tracks.
	CatPacket Cat = "packet"
	// CatPRLoad covers partial-reconfiguration loads: budget grant,
	// queueing and retries through the slot's ReadyAt.
	CatPRLoad Cat = "prload"
	// CatHeartbeat covers health-monitor cohort sweeps.
	CatHeartbeat Cat = "heartbeat"
	// CatHealth covers state-machine transitions and failovers.
	CatHealth Cat = "health"
	// CatMigration covers connection-table snapshot, drain and replay.
	CatMigration Cat = "migration"
	// CatFault covers chaos injections (planned and applied).
	CatFault Cat = "fault"
	// CatCmd covers command-path retransmissions and drops.
	CatCmd Cat = "cmd"
	// CatRack covers rack-tier digest refreshes on the rack-first
	// dispatch path.
	CatRack Cat = "rack"
	// CatGossip covers SWIM detector events: suspected, refuted,
	// confirmed.
	CatGossip Cat = "gossip"
	// CatRebalance covers background rebalance moves: per-phase spans
	// (planned, pre-copy, delta-replay), cutover and rebuild instants,
	// and abort instants with their reason.
	CatRebalance Cat = "rebalance"
	// CatSLO covers error-budget accounting: per-service burn-rate
	// change instants emitted at heartbeat barriers.
	CatSLO Cat = "slo"
	// CatAlert covers burn-rate alert state transitions
	// (pending/firing/resolved).
	CatAlert Cat = "alert"
)

// Event phase codes (Chrome trace-event "ph" field).
const (
	// PhSpan is a complete span with a duration ("X").
	PhSpan byte = 'X'
	// PhInstant is a zero-duration instant event ("i").
	PhInstant byte = 'i'
)

// Event is one trace record. The argument fields are fixed slots — one
// string and two int64s, unused when the key is empty — so composing
// and recording an Event never heap-allocates.
type Event struct {
	Name string
	Cat  Cat
	Ph   byte
	// Ts is the event start in picosecond sim time; Dur is the span
	// length (0 for instants).
	Ts  sim.Time
	Dur sim.Time
	// K1/V1 is the string argument slot; K2/V2 and K3/V3 are the int64
	// slots. Empty keys are omitted from the export.
	K1 string
	V1 string
	K2 string
	V2 int64
	K3 string
	V3 int64
}

// Span builds a complete-span event covering [start, end].
func Span(cat Cat, name string, start, end sim.Time) Event {
	d := end - start
	if d < 0 {
		d = 0
	}
	return Event{Name: name, Cat: cat, Ph: PhSpan, Ts: start, Dur: d}
}

// Instant builds an instant event at ts.
func Instant(cat Cat, name string, ts sim.Time) Event {
	return Event{Name: name, Cat: cat, Ph: PhInstant, Ts: ts}
}

// Buffer is one track of events (a Perfetto "thread"). A Buffer is
// owned by exactly one goroutine between control-plane barriers; Add
// is therefore unsynchronized. All methods are nil-safe: a nil Buffer
// is the zero-cost disabled state.
type Buffer struct {
	name string
	pid  int
	tid  int
	// ring > 0 bounds the track to the last ring events (flight mode).
	ring    int
	events  []Event
	head    int
	dropped uint64
}

// Add records one event. On a nil Buffer it is a no-op; in ring mode
// the oldest event is overwritten once the track is full.
func (b *Buffer) Add(e Event) {
	if b == nil {
		return
	}
	if b.ring > 0 && len(b.events) == b.ring {
		b.events[b.head] = e
		b.head++
		if b.head == b.ring {
			b.head = 0
		}
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// Len reports how many events the track currently holds.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.events)
}

// Dropped reports how many events ring mode overwrote.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// ordered returns the track's events oldest-first.
func (b *Buffer) ordered() []Event {
	if b.ring == 0 || b.head == 0 {
		return b.events
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.head:]...)
	out = append(out, b.events[:b.head]...)
	return out
}

// Process is one Perfetto process row: a named group of tracks. The
// chaos drill gives each storm case its own process so the three
// defenses line up side by side.
type Process struct {
	r      *Recorder
	name   string
	pid    int
	tracks []*Buffer
}

// Track creates (or returns) a named track in the process. Tracks are
// assigned thread IDs in creation order, which must therefore be
// deterministic.
func (p *Process) Track(name string) *Buffer {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	for _, t := range p.tracks {
		if t.name == name {
			return t
		}
	}
	b := &Buffer{name: name, pid: p.pid, tid: len(p.tracks) + 1, ring: p.r.ring}
	p.tracks = append(p.tracks, b)
	return b
}

// Sample reports the recorder's packet-sampling divisor (record 1 of
// every N routed packets).
func (p *Process) Sample() int { return p.r.sample }

// Recorder collects trace processes and exports them. Create one per
// run with NewRecorder (unbounded) or NewFlightRecorder (per-track
// ring of the last N events).
type Recorder struct {
	mu     sync.Mutex
	procs  []*Process
	ring   int
	sample int
}

// defaultPacketSample keeps full traces loadable: a 300-node storm
// routes ~780k packets per case, so the packet spans — and only they —
// are decimated. Drops, loads, migrations and faults always record.
const defaultPacketSample = 64

// NewRecorder returns an unbounded trace recorder.
func NewRecorder() *Recorder {
	return &Recorder{sample: defaultPacketSample}
}

// NewFlightRecorder returns a recorder whose tracks each keep only
// their last lastN events — cheap enough to run always-on, dumped when
// a gate fails. Packet sampling is disabled: the ring already bounds
// volume and a post-mortem wants maximum recent detail.
func NewFlightRecorder(lastN int) *Recorder {
	if lastN <= 0 {
		lastN = 4096
	}
	return &Recorder{ring: lastN, sample: 1}
}

// Process creates (or returns) a named process row. Processes take
// IDs in creation order.
func (r *Recorder) Process(name string) *Process {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.procs {
		if p.name == name {
			return p
		}
	}
	p := &Process{r: r, name: name, pid: len(r.procs) + 1}
	r.procs = append(r.procs, p)
	return p
}

// taggedEvent carries an event with its export coordinates.
type taggedEvent struct {
	Event
	pid, tid int
}

// merged collects every track's events in fixed (process, track,
// sequence) order and stably sorts by timestamp — the property that
// makes the export deterministic. Caller holds r.mu.
func (r *Recorder) merged() []taggedEvent {
	var out []taggedEvent
	for _, p := range r.procs {
		for _, t := range p.tracks {
			for _, e := range t.ordered() {
				out = append(out, taggedEvent{Event: e, pid: p.pid, tid: t.tid})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return out
}

// Events returns every recorded event merged across tracks in export
// order (for tests and programmatic inspection).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.merged()
	out := make([]Event, len(m))
	for i := range m {
		out[i] = m[i].Event
	}
	return out
}

// WriteTrace exports the recording as Chrome trace-event JSON
// (Perfetto-loadable). Timestamps convert from picoseconds to the
// format's microseconds with fixed six-digit fractions, rendered
// without floating point so output is byte-deterministic.
func (r *Recorder) WriteTrace(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	comma := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	// Metadata names the process and thread rows in the UI.
	for _, p := range r.procs {
		comma()
		bw.WriteString("{\"ph\":\"M\",\"pid\":")
		bw.WriteString(strconv.Itoa(p.pid))
		bw.WriteString(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":")
		bw.WriteString(strconv.Quote(p.name))
		bw.WriteString("}}")
		for _, t := range p.tracks {
			comma()
			bw.WriteString("{\"ph\":\"M\",\"pid\":")
			bw.WriteString(strconv.Itoa(p.pid))
			bw.WriteString(",\"tid\":")
			bw.WriteString(strconv.Itoa(t.tid))
			bw.WriteString(",\"name\":\"thread_name\",\"args\":{\"name\":")
			bw.WriteString(strconv.Quote(t.name))
			bw.WriteString("}}")
		}
	}
	for _, e := range r.merged() {
		comma()
		writeEvent(bw, e.Event, e.pid, e.tid)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// writeTs renders picoseconds as trace-format microseconds with a
// fixed six-digit fraction ("12.000345"), avoiding float formatting.
func writeTs(bw *bufio.Writer, ps sim.Time) {
	if ps < 0 {
		ps = 0
	}
	us := int64(ps) / 1_000_000
	frac := int64(ps) % 1_000_000
	bw.WriteString(strconv.FormatInt(us, 10))
	bw.WriteByte('.')
	s := strconv.FormatInt(frac, 10)
	for i := len(s); i < 6; i++ {
		bw.WriteByte('0')
	}
	bw.WriteString(s)
}

func writeEvent(bw *bufio.Writer, e Event, pid, tid int) {
	bw.WriteString("{\"name\":")
	bw.WriteString(strconv.Quote(e.Name))
	bw.WriteString(",\"cat\":")
	bw.WriteString(strconv.Quote(string(e.Cat)))
	bw.WriteString(",\"ph\":\"")
	bw.WriteByte(e.Ph)
	bw.WriteString("\",\"ts\":")
	writeTs(bw, e.Ts)
	if e.Ph == PhSpan {
		bw.WriteString(",\"dur\":")
		writeTs(bw, e.Dur)
	}
	if e.Ph == PhInstant {
		bw.WriteString(",\"s\":\"t\"")
	}
	bw.WriteString(",\"pid\":")
	bw.WriteString(strconv.Itoa(pid))
	bw.WriteString(",\"tid\":")
	bw.WriteString(strconv.Itoa(tid))
	if e.K1 != "" || e.K2 != "" || e.K3 != "" {
		bw.WriteString(",\"args\":{")
		sep := false
		if e.K1 != "" {
			bw.WriteString(strconv.Quote(e.K1))
			bw.WriteByte(':')
			bw.WriteString(strconv.Quote(e.V1))
			sep = true
		}
		if e.K2 != "" {
			if sep {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Quote(e.K2))
			bw.WriteByte(':')
			bw.WriteString(strconv.FormatInt(e.V2, 10))
			sep = true
		}
		if e.K3 != "" {
			if sep {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.Quote(e.K3))
			bw.WriteByte(':')
			bw.WriteString(strconv.FormatInt(e.V3, 10))
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}
