package pcie

import (
	"fmt"

	"harmonia/internal/sim"
)

// Direction of a DMA transfer.
type Direction int

// Transfer directions.
const (
	HostToDevice Direction = iota
	DeviceToHost
)

// String names the direction.
func (d Direction) String() string {
	if d == HostToDevice {
		return "h2c"
	}
	return "c2h"
}

// Transfer is one queued DMA descriptor.
type Transfer struct {
	Queue   int
	Dir     Direction
	Bytes   int
	Posted  sim.Time
	Control bool
	Meta    any
}

// QueueStats aggregates per-queue activity — the per-queue monitoring
// the Host RBB exposes (queue depth, transmitted packets, speed).
type QueueStats struct {
	Posted    int64
	Completed int64
	Bytes     int64
	MaxDepth  int
}

type queue struct {
	pending []Transfer
	active  bool
	stats   QueueStats
}

// pop dequeues the oldest pending transfer. A queue that drains
// rewinds to the start of its backing array, so the next post reuses
// it instead of reallocating.
func (q *queue) pop() Transfer {
	tr := q.pending[0]
	q.pending[0] = Transfer{}
	if len(q.pending) == 1 {
		q.pending = q.pending[:0]
	} else {
		q.pending = q.pending[1:]
	}
	return tr
}

// SchedulerMode selects how the engine finds work.
type SchedulerMode int

// Scheduler modes.
const (
	// ActiveList scans only queues marked active (Harmonia's design):
	// scheduling cost is independent of the total queue count.
	ActiveList SchedulerMode = iota
	// FullScan scans every queue slot per decision (the baseline the
	// ablation compares against): cost grows with queue count.
	FullScan
)

// EngineConfig configures a DMA engine.
type EngineConfig struct {
	// Queues is the data queue count (1024 in the Host RBB).
	Queues int
	// Mode selects the scheduling strategy.
	Mode SchedulerMode
	// SchedCycle is the cost of examining one queue slot during
	// scheduling.
	SchedCycle sim.Time
	// ControlQueue reserves a dedicated queue for command traffic that
	// bypasses data scheduling entirely (§3.3.3's performance
	// isolation).
	ControlQueue bool
}

// DefaultEngineConfig returns the Host RBB's production configuration.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Queues:       1024,
		Mode:         ActiveList,
		SchedCycle:   4 * sim.Nanosecond,
		ControlQueue: true,
	}
}

// Engine is a multi-queue DMA engine over a PCIe link. Descriptors post
// to per-queue rings; a scheduler picks the next active queue
// round-robin and serializes its transfer on the link.
//
// Queue state is materialised on first post: queues grows to cover the
// highest id posted so far, and every slot in [len(queues), cfg.Queues)
// is an empty queue nobody has used. Range checks and the FullScan
// cost still follow cfg.Queues, so an engine whose data queues are
// never posted to (the command driver's) holds no per-queue storage.
type Engine struct {
	cfg    EngineConfig
	link   *Link
	queues []queue
	// activeRing holds indices of queues with pending work, in
	// round-robin order.
	activeRing []int
	ringPos    int
	ctrl       queue
	schedBusy  sim.Time
	schedCost  sim.Time // accumulated scheduling time (for ablation)
}

// NewEngine returns a DMA engine with the given configuration over link.
func NewEngine(link *Link, cfg EngineConfig) (*Engine, error) {
	if link == nil {
		return nil, fmt.Errorf("pcie: engine requires a link")
	}
	if cfg.Queues <= 0 {
		return nil, fmt.Errorf("pcie: queue count %d must be positive", cfg.Queues)
	}
	if cfg.SchedCycle <= 0 {
		cfg.SchedCycle = 4 * sim.Nanosecond
	}
	return &Engine{cfg: cfg, link: link}, nil
}

// Link returns the underlying link.
func (e *Engine) Link() *Link { return e.link }

// QueueStats returns statistics for queue id; a queue nobody has
// posted to reports zero.
func (e *Engine) QueueStats(id int) (QueueStats, error) {
	if err := e.checkQueue(id); err != nil {
		return QueueStats{}, err
	}
	if id >= len(e.queues) {
		return QueueStats{}, nil
	}
	return e.queues[id].stats, nil
}

func (e *Engine) checkQueue(id int) error {
	if id < 0 || id >= e.cfg.Queues {
		return fmt.Errorf("pcie: queue %d out of range [0,%d)", id, e.cfg.Queues)
	}
	return nil
}

// SchedulingTime reports the cumulative time spent scanning for work.
func (e *Engine) SchedulingTime() sim.Time { return e.schedCost }

// Post enqueues a transfer on queue id at time now. The transfer is
// dispatched by Run.
func (e *Engine) Post(now sim.Time, id int, dir Direction, bytes int) error {
	if err := e.checkQueue(id); err != nil {
		return err
	}
	if bytes <= 0 {
		return fmt.Errorf("pcie: transfer size %d must be positive", bytes)
	}
	if id >= len(e.queues) {
		e.queues = append(e.queues, make([]queue, id+1-len(e.queues))...)
	}
	q := &e.queues[id]
	q.pending = append(q.pending, Transfer{Queue: id, Dir: dir, Bytes: bytes, Posted: now})
	q.stats.Posted++
	if d := len(q.pending); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	if !q.active {
		q.active = true
		e.activeRing = append(e.activeRing, id)
	}
	return nil
}

// PostControl enqueues a command-path transfer. With ControlQueue
// enabled it bypasses data scheduling; otherwise it contends on queue 0.
func (e *Engine) PostControl(now sim.Time, bytes int) error {
	if !e.cfg.ControlQueue {
		return e.Post(now, 0, HostToDevice, bytes)
	}
	e.ctrl.pending = append(e.ctrl.pending, Transfer{Dir: HostToDevice, Bytes: bytes, Posted: now, Control: true})
	e.ctrl.stats.Posted++
	return nil
}

// schedule finds the next queue with work, charging scan cost per the
// configured mode, and returns its index (or -1).
func (e *Engine) schedule(now sim.Time) (qIdx int, ready sim.Time) {
	ready = now
	if e.schedBusy > ready {
		ready = e.schedBusy
	}
	switch e.cfg.Mode {
	case FullScan:
		// Hardware scans all cfg.Queues slots sequentially each
		// decision; a slot not yet materialised is empty.
		n := e.cfg.Queues
		scanned := 0
		for i := 0; i < n; i++ {
			idx := (e.ringPos + i) % n
			scanned++
			if idx < len(e.queues) && len(e.queues[idx].pending) > 0 {
				cost := sim.Time(scanned) * e.cfg.SchedCycle
				e.schedCost += cost
				ready += cost
				e.schedBusy = ready
				e.ringPos = (idx + 1) % n
				return idx, ready
			}
		}
		cost := sim.Time(scanned) * e.cfg.SchedCycle
		e.schedCost += cost
		e.schedBusy = ready + cost
		return -1, ready
	default: // ActiveList
		if len(e.activeRing) == 0 {
			return -1, ready
		}
		cost := e.cfg.SchedCycle
		e.schedCost += cost
		ready += cost
		e.schedBusy = ready
		if e.ringPos >= len(e.activeRing) {
			e.ringPos = 0
		}
		idx := e.activeRing[e.ringPos]
		return idx, ready
	}
}

// dispatchControl drains one control transfer, if any, ahead of data.
func (e *Engine) dispatchControl(now sim.Time) (sim.Time, bool) {
	if len(e.ctrl.pending) == 0 {
		return 0, false
	}
	tr := e.ctrl.pop()
	done := e.link.Transfer(now, tr.Bytes)
	e.ctrl.stats.Completed++
	e.ctrl.stats.Bytes += int64(tr.Bytes)
	return done, true
}

// Step dispatches the next transfer (control first, then scheduled
// data) and returns its completion time. ok is false when idle.
func (e *Engine) Step(now sim.Time) (done sim.Time, ok bool) {
	if e.cfg.ControlQueue {
		if d, dispatched := e.dispatchControl(now); dispatched {
			return d, true
		}
	}
	idx, ready := e.schedule(now)
	if idx < 0 {
		return 0, false
	}
	q := &e.queues[idx]
	tr := q.pop()
	done = e.link.Transfer(ready, tr.Bytes)
	q.stats.Completed++
	q.stats.Bytes += int64(tr.Bytes)
	if len(q.pending) == 0 {
		q.active = false
		// Remove from the ring, preserving round-robin order.
		for i, id := range e.activeRing {
			if id == idx {
				e.activeRing = append(e.activeRing[:i], e.activeRing[i+1:]...)
				if e.ringPos > i {
					e.ringPos--
				}
				break
			}
		}
	} else {
		e.ringPos++
	}
	if e.ringPos >= len(e.activeRing) {
		e.ringPos = 0
	}
	return done, true
}

// Drain dispatches until no work remains, starting at now, and returns
// the final completion time. Transfers pipeline: the link and scheduler
// each serialize on their own availability, so draining N transfers
// costs max(scheduling, serialization) plus one completion latency, not
// their sum.
func (e *Engine) Drain(now sim.Time) sim.Time {
	last := now
	for {
		done, ok := e.Step(now)
		if !ok {
			return last
		}
		if done > last {
			last = done
		}
	}
}
