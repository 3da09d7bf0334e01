package sim

// Engine is a single-threaded discrete-event scheduler. Callbacks run in
// timestamp order; callbacks with equal timestamps run in scheduling
// order. The engine is not safe for concurrent use: models schedule
// follow-up events from within callbacks.
type Engine struct {
	now Time
	// events is a hand-rolled binary min-heap ordered by (at, seq).
	// Events are stored by value: scheduling costs no per-event
	// allocation and no interface boxing on the hot simulation path.
	events []event
	seq    int64
}

// NewEngine returns an engine with simulated time at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) clamps to the current time, preserving causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.siftUp(len(e.events) - 1)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Step executes the next pending event, if any, and reports whether one
// was executed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{} // release the callback for GC
	e.events = e.events[:n]
	if n > 1 {
		e.siftDown(0)
	}
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

type event struct {
	at  Time
	seq int64
	fn  func()
}

func (e *Engine) less(i, j int) bool {
	if e.events[i].at != e.events[j].at {
		return e.events[i].at < e.events[j].at
	}
	return e.events[i].seq < e.events[j].seq
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.events)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			return
		}
		e.events[i], e.events[least] = e.events[least], e.events[i]
		i = least
	}
}
