package rbb

import (
	"container/list"
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/mem"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/wrapper"
)

// HotCache is the Memory RBB's on-chip cache Ex-function: consecutively
// accessed data is kept on-chip for fast access, covering patterns where
// interleaved access is impossible (§3.3.1). It is an LRU over
// fixed-size lines with O(1) lookup and eviction.
type HotCache struct {
	enabled  bool
	lineSize int64
	capacity int
	lines    map[int64]*list.Element // line tag -> order entry
	order    *list.List              // front = most recent; values are tags
	hitTime  sim.Time
	hits     int64
	misses   int64
}

// NewHotCache returns an enabled LRU cache of capacity lines.
func NewHotCache(capacityLines int, lineSize int64, hitTime sim.Time) *HotCache {
	if capacityLines <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("rbb: hot cache capacity %d / line %d invalid", capacityLines, lineSize))
	}
	return &HotCache{
		enabled:  true,
		lineSize: lineSize,
		capacity: capacityLines,
		lines:    make(map[int64]*list.Element, capacityLines),
		order:    list.New(),
		hitTime:  hitTime,
	}
}

// SetEnabled switches the cache on or off.
func (h *HotCache) SetEnabled(on bool) { h.enabled = on }

// Lookup checks addr; on hit it refreshes LRU order and returns the
// on-chip latency. On miss it fills the line (evicting LRU if needed).
func (h *HotCache) Lookup(addr int64) (lat sim.Time, hit bool) {
	if !h.enabled {
		return 0, false
	}
	tag := addr / h.lineSize
	if e, ok := h.lines[tag]; ok {
		h.order.MoveToFront(e)
		h.hits++
		return h.hitTime, true
	}
	h.misses++
	if h.order.Len() >= h.capacity {
		oldest := h.order.Back()
		h.order.Remove(oldest)
		delete(h.lines, oldest.Value.(int64))
	}
	h.lines[tag] = h.order.PushFront(tag)
	return 0, false
}

// MemoryRBB is the functional Memory building block: a DDR or HBM
// controller instance behind an interface wrapper, with the address
// interleaving and hot cache Ex-functions.
type MemoryRBB struct {
	desc   *Desc
	spec   ip.MemSpec
	dev    *mem.Device
	Cache  *HotCache
	path   *wrapper.DataPath
	access Counters
}

// NewMemory builds a Memory RBB for a vendor controller over the given
// memory kind, with the role side at userClk and userWidth.
func NewMemory(vendor platform.Vendor, kind ip.MemKind, userClk *sim.Clock, userWidth int) (*MemoryRBB, error) {
	spec, err := ip.SpecForMem(kind)
	if err != nil {
		return nil, err
	}
	desc, err := NewMemoryDesc(vendor, kind)
	if err != nil {
		return nil, err
	}
	var cfg mem.Config
	if kind == ip.HBMMem {
		cfg = mem.HBMConfig()
	} else {
		cfg = mem.DDR4Config(spec.Channels)
	}
	memClk := sim.NewClock(string(kind), spec.CoreMHz)
	path, err := wrapper.NewDataPath("mem-rbb", memClk, spec.DataWidth, userClk, userWidth)
	if err != nil {
		return nil, err
	}
	m := &MemoryRBB{
		desc:  desc,
		spec:  spec,
		dev:   mem.NewDevice(cfg),
		Cache: NewHotCache(4096, 64, 12*sim.Nanosecond),
		path:  path,
	}
	// Address interleaving is on by default — the Ex-function's point.
	m.SetInterleaving(true)
	return m, nil
}

func memoryDesc(wrapped *hdl.Module, overhead hdl.Resources) *Desc {
	return &Desc{
		Kind:         MemoryKind,
		Instance:     wrapped,
		WrapOverhead: overhead,
		InstanceGlue: hdl.LoC{Handcraft: 1_200},
		Reusable: ReusableLogic{
			ExFunction: hdl.LoC{Handcraft: 3_400}, // interleaving + hot cache
			Control:    hdl.LoC{Handcraft: 1_000},
			Monitoring: hdl.LoC{Handcraft: 800},
			Res:        hdl.Resources{LUT: 7_800, REG: 11_500, BRAM: 24, URAM: 8},
			Params: []hdl.Param{
				{Name: "INTERLEAVE", Default: "1", Scope: hdl.RoleOriented},
				{Name: "HOT_CACHE_LINES", Default: "4096", Scope: hdl.RoleOriented},
				{Name: "CHANNELS_USED", Default: "all", Scope: hdl.RoleOriented},
			},
		},
	}
}

// Spec returns the controller specification.
func (m *MemoryRBB) Spec() ip.MemSpec { return m.spec }

// Device exposes the underlying memory device (for workload setup).
func (m *MemoryRBB) Device() *mem.Device { return m.dev }

// SetInterleaving toggles the address-interleaving Ex-function.
func (m *MemoryRBB) SetInterleaving(on bool) {
	if on {
		m.dev.SetMapping(mem.Striped)
	} else {
		m.dev.SetMapping(mem.Linear)
	}
}

// Read performs a timed read of size bytes at addr.
func (m *MemoryRBB) Read(now sim.Time, addr int64, size int) (data []byte, done sim.Time) {
	m.access.Record(size, false)
	if lat, hit := m.Cache.Lookup(addr); hit {
		// Serve on-chip, but still move the data across the wrapper.
		done = m.path.Transfer(now+lat, size)
		return m.dev.Peek(addr, size), done
	}
	data, devDone := m.dev.Read(now, addr, size)
	done = m.path.Transfer(devDone, size)
	return data, done
}

// Write performs a timed write of data at addr.
func (m *MemoryRBB) Write(now sim.Time, addr int64, data []byte) (done sim.Time) {
	m.access.Record(len(data), false)
	m.Cache.Lookup(addr) // writes allocate
	through := m.path.Transfer(now, len(data))
	return m.dev.Write(through, addr, data)
}

// WrapperLatency reports the wrapper's fixed latency.
func (m *MemoryRBB) WrapperLatency() sim.Time { return m.path.FixedLatency() }

// SetNative toggles native mode (no wrapper translation pipeline).
func (m *MemoryRBB) SetNative(on bool) { m.path.SetBypass(on) }
