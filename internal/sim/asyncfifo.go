package sim

import "fmt"

// Item is a unit of data moving through a datapath model. Beats carry a
// payload width in bits so bandwidth accounting stays exact, plus opaque
// metadata for functional models (packet headers, addresses, ...).
type Item struct {
	// Bits is the payload size of this beat or transaction in bits.
	Bits int
	// Enqueued is the time the item entered the current stage; stages
	// update it as the item moves so end-to-end latency can be sampled.
	Enqueued Time
	// Born is the time the item entered the system; never updated.
	Born Time
	// Meta carries model-specific data (e.g. a *net.Packet).
	Meta any
	// Last marks the final beat of a multi-beat stream transfer.
	Last bool
}

// AsyncFIFO models the dual-clock gray-pointer FIFO used for clock
// domain crossings (the paper's "param clock domain crossing", §3.3.1,
// design per Cummings' classic async-FIFO scheme). Writes land in the
// write clock domain; a two-flop synchronizer delays pointer visibility
// by syncStages cycles of the destination clock, so an item written at
// time t is earliest readable at the read-clock edge following
// t + syncStages read periods. This reproduces the small fixed crossing
// latency the paper reports for wrapped interfaces without modelling
// metastability itself.
type AsyncFIFO struct {
	name       string
	capacity   int
	wrClk      *Clock
	rdClk      *Clock
	syncStages int64

	items  []asyncItem
	head   int
	pushes int64
	drops  int64
	maxUse int
}

type asyncItem struct {
	item    Item
	visible Time // earliest read time
}

// DefaultSyncStages is the conventional two-flop synchronizer depth.
const DefaultSyncStages = 2

// NewAsyncFIFO returns a CDC FIFO from wrClk into rdClk with the given
// capacity and a two-flop synchronizer.
func NewAsyncFIFO(name string, capacity int, wrClk, rdClk *Clock) *AsyncFIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: AsyncFIFO %q capacity %d must be positive", name, capacity))
	}
	if wrClk == nil || rdClk == nil {
		panic(fmt.Sprintf("sim: AsyncFIFO %q requires both clocks", name))
	}
	return &AsyncFIFO{
		name:       name,
		capacity:   capacity,
		wrClk:      wrClk,
		rdClk:      rdClk,
		syncStages: DefaultSyncStages,
	}
}

// Name reports the FIFO's name.
func (f *AsyncFIFO) Name() string { return f.name }

// Len reports the number of items buffered (visible or not).
func (f *AsyncFIFO) Len() int { return len(f.items) - f.head }

// Full reports whether a write would be rejected.
func (f *AsyncFIFO) Full() bool { return f.Len() >= f.capacity }

// Drops reports rejected writes.
func (f *AsyncFIFO) Drops() int64 { return f.drops }

// MaxDepth reports the high-water occupancy.
func (f *AsyncFIFO) MaxDepth() int { return f.maxUse }

// CrossingLatency reports the worst-case write-to-readable delay: the
// synchronizer stages in the read domain plus one read-clock edge
// alignment.
func (f *AsyncFIFO) CrossingLatency() Time {
	return Time(f.syncStages+1) * f.rdClk.Period()
}

// Push writes an item at time now (write-domain time). It reports false
// when the FIFO is full.
func (f *AsyncFIFO) Push(now Time, it Item) bool {
	if f.Full() {
		f.drops++
		return false
	}
	// The write commits on the next write-clock edge; the read pointer
	// update is then synchronized into the read domain.
	commit := f.wrClk.NextEdge(now)
	visible := f.rdClk.NextEdge(commit) + Time(f.syncStages)*f.rdClk.Period()
	f.items = append(f.items, asyncItem{item: it, visible: visible})
	f.pushes++
	if d := f.Len(); d > f.maxUse {
		f.maxUse = d
	}
	return true
}

// Pop reads the oldest item if it is visible at read-domain time now.
func (f *AsyncFIFO) Pop(now Time) (it Item, ok bool) {
	if f.Len() == 0 {
		return Item{}, false
	}
	ai := f.items[f.head]
	if ai.visible > now {
		return Item{}, false
	}
	f.items[f.head] = asyncItem{}
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
	return ai.item, true
}

// NextVisible reports the earliest time the oldest buffered item becomes
// readable, and ok=false when the FIFO is empty.
func (f *AsyncFIFO) NextVisible() (t Time, ok bool) {
	if f.Len() == 0 {
		return 0, false
	}
	return f.items[f.head].visible, true
}
