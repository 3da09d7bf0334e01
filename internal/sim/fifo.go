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

// FIFO is a bounded queue within a single clock domain. It tracks
// occupancy high-water marks so monitoring models can report queue usage
// the way the paper's Network RBB does.
type FIFO struct {
	name     string
	capacity int
	items    []Item
	head     int
	maxDepth int
	pushes   int64
	drops    int64
}

// NewFIFO returns a FIFO holding at most capacity items. It panics if
// capacity is not positive.
func NewFIFO(name string, capacity int) *FIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: FIFO %q capacity %d must be positive", name, capacity))
	}
	return &FIFO{name: name, capacity: capacity}
}

// Name reports the FIFO's name.
func (f *FIFO) Name() string { return f.name }

// Len reports the current occupancy.
func (f *FIFO) Len() int { return len(f.items) - f.head }

// Full reports whether the FIFO is at capacity.
func (f *FIFO) Full() bool { return f.Len() >= f.capacity }

// Empty reports whether the FIFO holds no items.
func (f *FIFO) Empty() bool { return f.Len() == 0 }

// MaxDepth reports the high-water occupancy observed.
func (f *FIFO) MaxDepth() int { return f.maxDepth }

// Drops reports how many pushes were rejected because the FIFO was full.
func (f *FIFO) Drops() int64 { return f.drops }

// Pushes reports how many items were accepted.
func (f *FIFO) Pushes() int64 { return f.pushes }

// Push appends an item, reporting false (and counting a drop) when full.
func (f *FIFO) Push(it Item) bool {
	if f.Full() {
		f.drops++
		return false
	}
	f.items = append(f.items, it)
	f.pushes++
	if d := f.Len(); d > f.maxDepth {
		f.maxDepth = d
	}
	return true
}

// Pop removes and returns the oldest item. ok is false when empty.
func (f *FIFO) Pop() (it Item, ok bool) {
	if f.Empty() {
		return Item{}, false
	}
	it = f.items[f.head]
	f.items[f.head] = Item{}
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > f.capacity && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return it, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO) Peek() (it Item, ok bool) {
	if f.Empty() {
		return Item{}, false
	}
	return f.items[f.head], true
}

// Reset empties the FIFO and clears statistics.
func (f *FIFO) Reset() {
	f.items = f.items[:0]
	f.head = 0
	f.maxDepth = 0
	f.pushes = 0
	f.drops = 0
}
