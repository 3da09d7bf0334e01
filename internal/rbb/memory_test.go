package rbb

import (
	"bytes"
	"testing"

	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

func TestHotCacheLRU(t *testing.T) {
	h := NewHotCache(2, 64, 10*sim.Nanosecond)
	if _, hit := h.Lookup(0); hit {
		t.Error("cold cache hit")
	}
	if lat, hit := h.Lookup(0); !hit || lat != 10*sim.Nanosecond {
		t.Error("warm line missed")
	}
	h.Lookup(64)  // fill second line
	h.Lookup(0)   // refresh line 0
	h.Lookup(128) // evicts line 64 (LRU)
	if _, hit := h.Lookup(0); !hit {
		t.Error("recently used line evicted")
	}
	if _, hit := h.Lookup(64); hit {
		t.Error("LRU line not evicted")
	}
	if h.hits == 0 || h.misses == 0 {
		t.Error("stats not tracked")
	}
}

func TestHotCacheDisabled(t *testing.T) {
	h := NewHotCache(16, 64, 10*sim.Nanosecond)
	h.Lookup(0)
	h.SetEnabled(false)
	if _, hit := h.Lookup(0); hit {
		t.Error("disabled cache hit")
	}
}

func TestHotCachePanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHotCache(0) did not panic")
		}
	}()
	NewHotCache(0, 64, 0)
}

func newMemRBB(t *testing.T, kind ip.MemKind) *MemoryRBB {
	t.Helper()
	m, err := NewMemory(platform.Xilinx, kind, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := newMemRBB(t, ip.DDR4Mem)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	done := m.Write(0, 1<<20, payload)
	data, done2 := m.Read(done, 1<<20, len(payload))
	if !bytes.Equal(data, payload) {
		t.Errorf("read back %v, want %v", data, payload)
	}
	if done2 <= done {
		t.Error("read completed instantly")
	}
	if m.access.Units != 2 {
		t.Errorf("stats = %+v", m.access)
	}
}

func TestMemoryHotCacheAccelerates(t *testing.T) {
	// Second read of the same line is served on-chip: strictly faster.
	m := newMemRBB(t, ip.DDR4Mem)
	_, cold := m.Read(sim.Millisecond, 1<<20, 64)
	coldLat := cold - sim.Millisecond
	_, warm := m.Read(2*sim.Millisecond, 1<<20, 64)
	warmLat := warm - 2*sim.Millisecond
	if warmLat >= coldLat {
		t.Errorf("hot-cache read %v not faster than cold %v", warmLat, coldLat)
	}
	if m.Cache.hits == 0 {
		t.Error("cache hit not recorded")
	}
}

func TestMemoryHotCacheAblation(t *testing.T) {
	// With the cache disabled, repeated reads pay device latency.
	m := newMemRBB(t, ip.DDR4Mem)
	m.Cache.SetEnabled(false)
	m.Read(0, 0, 64)
	_, second := m.Read(sim.Millisecond, 0, 64)
	secondLat := second - sim.Millisecond

	m2 := newMemRBB(t, ip.DDR4Mem)
	m2.Read(0, 0, 64)
	_, warm := m2.Read(sim.Millisecond, 0, 64)
	warmLat := warm - sim.Millisecond
	if warmLat >= secondLat {
		t.Errorf("cache-on repeat %v not faster than cache-off %v", warmLat, secondLat)
	}
}

func TestMemoryHBMInstance(t *testing.T) {
	m := newMemRBB(t, ip.HBMMem)
	if m.Spec().Channels != 32 {
		t.Errorf("HBM channels = %d", m.Spec().Channels)
	}
	if m.Device().Config().Kind != "hbm" {
		t.Errorf("device kind = %q", m.Device().Config().Kind)
	}
}

func TestMemoryInterleavingToggle(t *testing.T) {
	m := newMemRBB(t, ip.DDR4Mem)
	m.SetInterleaving(false)
	if m.Device().Config().Mapping.String() != "linear" {
		t.Error("interleaving off should map linear")
	}
	m.SetInterleaving(true)
	if m.Device().Config().Mapping.String() != "striped" {
		t.Error("interleaving on should stripe")
	}
}

func TestMemoryIntelHBMRejected(t *testing.T) {
	if _, err := NewMemory(platform.Intel, ip.HBMMem, userClk(), 512); err == nil {
		t.Error("Intel HBM Memory RBB should fail")
	}
}
