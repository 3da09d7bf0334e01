package apps

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"harmonia/internal/net"
)

// FlowTable is the stateful connection table of the Layer-4 LB: the
// flow → backend pinning that keeps established connections on their
// server while the Maglev pool churns underneath. It is the
// device-resident state live migration carries across PR slots, so it
// knows how to snapshot itself into (and restore itself from) the
// versioned word encoding the command path's table transactions move.
type FlowTable struct {
	conns map[net.FlowKey]net.IPAddr
	max   int
	// sorted is the table as of the last Snapshot, in key order, and
	// pinned lists the entries pinned under new keys since then: the
	// next Snapshot sorts only pinned and merges it in. stale means some
	// change since the last Snapshot was not a new-key pin (a restore,
	// an eviction, an overwritten pin, or no Snapshot yet), so the next
	// one rebuilds from the map and pinned is not kept meanwhile.
	sorted []ConnEntry
	pinned []ConnEntry
	stale  bool
	// hits/misses count lookups against established flows vs new-flow
	// pins; tableFull counts pins refused because the table was at
	// capacity — those flows silently lose stickiness, so the counter
	// is the operator's only signal.
	hits, misses, tableFull int64
}

// NewFlowTable returns an empty table bounded at max entries.
func NewFlowTable(max int) *FlowTable {
	return &FlowTable{conns: make(map[net.FlowKey]net.IPAddr), max: max, stale: true}
}

// Len reports the established flow count.
func (t *FlowTable) Len() int { return len(t.conns) }

// Max reports the table capacity.
func (t *FlowTable) Max() int { return t.max }

// SetMax rebounds the table; existing entries stay even above the new
// bound, only future pins are refused.
func (t *FlowTable) SetMax(max int) { t.max = max }

// Lookup finds an established flow's pinned backend, counting the hit.
func (t *FlowTable) Lookup(k net.FlowKey) (net.IPAddr, bool) {
	b, ok := t.conns[k]
	if ok {
		t.hits++
	}
	return b, ok
}

// Peek reads an entry without touching the counters (measurement and
// migration use it; the datapath uses Lookup).
func (t *FlowTable) Peek(k net.FlowKey) (net.IPAddr, bool) {
	b, ok := t.conns[k]
	return b, ok
}

// Pin records a new flow's backend, counting the miss. A full table
// refuses the pin and counts it: the flow is still served but loses
// stickiness across pool changes.
func (t *FlowTable) Pin(k net.FlowKey, b net.IPAddr) bool {
	t.misses++
	if len(t.conns) >= t.max {
		t.tableFull++
		return false
	}
	n := len(t.conns)
	t.conns[k] = b
	switch {
	case len(t.conns) == n:
		t.stale = true // overwrote an existing key
	case !t.stale:
		t.pinned = append(t.pinned, ConnEntry{Key: k, Backend: b})
	}
	return true
}

// EvictBackend removes every flow pinned to a backend and reports how
// many were evicted — the cleanup path for a *failed* backend, whose
// pinned flows would otherwise blackhole forever.
func (t *FlowTable) EvictBackend(b net.IPAddr) int {
	evicted := 0
	for k, have := range t.conns {
		if have == b {
			delete(t.conns, k)
			evicted++
		}
	}
	if evicted > 0 {
		t.stale = true
	}
	return evicted
}

// Stats reports the table counters.
func (t *FlowTable) Stats() (hits, misses, tableFull int64) {
	return t.hits, t.misses, t.tableFull
}

// ConnEntry is one pinned flow in a snapshot.
type ConnEntry struct {
	Key     net.FlowKey
	Backend net.IPAddr
}

// Snapshot exports the table as a deterministic entry list, sorted by
// the key's wire bytes (SrcIP, DstIP, Proto, SrcPort, DstPort) — the
// consistent capture the export side of migration stages. It sorts only
// the flows pinned since the last Snapshot and merges them into the
// previous capture; a restore, an eviction or an overwritten pin makes
// it rebuild from the table instead.
//
// The result is shared with the table and with every later Snapshot
// that finds nothing new: callers must only read it. The table never
// writes to a slice it has returned, so a capture stays valid, and
// unchanged, across later mutations.
func (t *FlowTable) Snapshot() []ConnEntry {
	switch {
	case t.stale:
		out := make([]ConnEntry, 0, len(t.conns))
		for k, b := range t.conns {
			out = append(out, ConnEntry{Key: k, Backend: b})
		}
		slices.SortFunc(out, compareEntries)
		t.sorted, t.stale = out, false
	case len(t.pinned) > 0:
		slices.SortFunc(t.pinned, compareEntries)
		out := make([]ConnEntry, 0, len(t.sorted)+len(t.pinned))
		rest := t.sorted
		for _, e := range t.pinned {
			i, _ := slices.BinarySearchFunc(rest, e, compareEntries)
			out = append(append(out, rest[:i]...), e)
			rest = rest[i:]
		}
		t.sorted = append(out, rest...)
	}
	// Keep a small pin list's array for the next round of pins, but let
	// a burst (a table filling between two captures) go rather than hold
	// its peak size for the table's lifetime.
	t.pinned = t.pinned[:0]
	if cap(t.pinned) > pinnedKeep {
		t.pinned = nil
	}
	return t.sorted
}

// pinnedKeep is the largest pin list whose array Snapshot keeps.
const pinnedKeep = 32

// Restore replays snapshot entries into the table, respecting the
// capacity bound; it reports how many were added and how many dropped.
// Counters are untouched: a restore is control-plane traffic, not
// datapath lookups.
func (t *FlowTable) Restore(entries []ConnEntry) (added, dropped int) {
	for _, e := range entries {
		if _, dup := t.conns[e.Key]; !dup && len(t.conns) >= t.max {
			dropped++
			continue
		}
		t.conns[e.Key] = e.Backend
		added++
	}
	if added > 0 {
		t.stale = true
	}
	return added, dropped
}

// keyOrder packs a flow key into two words whose (hi, lo) order is the
// byte order of the key on the wire: SrcIP, DstIP, then Proto, SrcPort
// and DstPort big-endian.
func keyOrder(k net.FlowKey) (hi, lo uint64) {
	hi = uint64(binary.BigEndian.Uint32(k.SrcIP[:]))<<32 | uint64(binary.BigEndian.Uint32(k.DstIP[:]))
	lo = uint64(k.Proto)<<32 | uint64(k.SrcPort)<<16 | uint64(k.DstPort)
	return hi, lo
}

// compareEntries orders snapshot entries by keyOrder.
func compareEntries(a, b ConnEntry) int {
	ah, al := keyOrder(a.Key)
	bh, bl := keyOrder(b.Key)
	if c := cmp.Compare(ah, bh); c != 0 {
		return c
	}
	return cmp.Compare(al, bl)
}

// Flow snapshot wire encoding (version 1): the word stream table-read/
// table-write transactions carry across devices during live migration.
//
//	word 0: magic (16) | version (16)
//	word 1: entry count
//	then per entry, 5 words:
//	  src IP, dst IP, src port (16) | dst port (16), proto, backend IP
const (
	flowSnapMagic       = 0x4C42 // "LB"
	FlowSnapshotVersion = 1
	flowSnapHeaderWords = 2
	flowSnapEntryWords  = 5
)

// ipWord packs an IPv4 address big-endian into one word.
func ipWord(a net.IPAddr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// wordIP unpacks ipWord.
func wordIP(w uint32) net.IPAddr {
	return net.IPAddr{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)}
}

// EncodeFlowSnapshot serializes entries into the versioned word stream.
func EncodeFlowSnapshot(entries []ConnEntry) []uint32 {
	n := FlowSnapshotLen(len(entries))
	return AppendFlowSnapshot(make([]uint32, 0, n), entries, 0, n)
}

// FlowSnapshotLen reports how many words the stream of n entries holds.
func FlowSnapshotLen(n int) int { return flowSnapHeaderWords + flowSnapEntryWords*n }

// AppendFlowSnapshot appends words [lo, hi) of the entries' encoded
// stream to dst, so a reader can be served one row of a capture at a
// time without staging the whole stream. hi must not exceed
// FlowSnapshotLen(len(entries)).
func AppendFlowSnapshot(dst []uint32, entries []ConnEntry, lo, hi int) []uint32 {
	header := [flowSnapHeaderWords]uint32{flowSnapMagic<<16 | FlowSnapshotVersion, uint32(len(entries))}
	if lo < flowSnapHeaderWords {
		dst = append(dst, header[lo:min(hi, flowSnapHeaderWords)]...)
		lo = flowSnapHeaderWords
	}
	for lo < hi {
		i, off := (lo-flowSnapHeaderWords)/flowSnapEntryWords, (lo-flowSnapHeaderWords)%flowSnapEntryWords
		e := entries[i]
		words := [flowSnapEntryWords]uint32{
			ipWord(e.Key.SrcIP),
			ipWord(e.Key.DstIP),
			uint32(e.Key.SrcPort)<<16 | uint32(e.Key.DstPort),
			uint32(e.Key.Proto),
			ipWord(e.Backend),
		}
		n := min(flowSnapEntryWords-off, hi-lo)
		dst = append(dst, words[off:off+n]...)
		lo += n
	}
	return dst
}

// FlowSnapshotWords validates a snapshot's header and returns the total
// word count the stream declares — how the receive side knows when a
// row-by-row transfer is complete.
func FlowSnapshotWords(words []uint32) (int, error) {
	if len(words) < flowSnapHeaderWords {
		return 0, fmt.Errorf("apps: flow snapshot truncated before header")
	}
	if magic := words[0] >> 16; magic != flowSnapMagic {
		return 0, fmt.Errorf("apps: flow snapshot bad magic %#04x", magic)
	}
	if v := words[0] & 0xffff; v != FlowSnapshotVersion {
		return 0, fmt.Errorf("apps: flow snapshot version %d, want %d", v, FlowSnapshotVersion)
	}
	return FlowSnapshotLen(int(words[1])), nil
}

// DecodeFlowSnapshot parses the versioned word stream back into
// entries, validating magic, version and length.
func DecodeFlowSnapshot(words []uint32) ([]ConnEntry, error) {
	want, err := FlowSnapshotWords(words)
	if err != nil {
		return nil, err
	}
	if len(words) != want {
		return nil, fmt.Errorf("apps: flow snapshot has %d words, header declares %d", len(words), want)
	}
	entries := make([]ConnEntry, 0, words[1])
	for i := flowSnapHeaderWords; i < want; i += flowSnapEntryWords {
		if words[i+3] > 0xff {
			return nil, fmt.Errorf("apps: flow snapshot entry %d proto word %#x out of range",
				(i-flowSnapHeaderWords)/flowSnapEntryWords, words[i+3])
		}
		entries = append(entries, ConnEntry{
			Key: net.FlowKey{
				SrcIP:   wordIP(words[i]),
				DstIP:   wordIP(words[i+1]),
				SrcPort: uint16(words[i+2] >> 16),
				DstPort: uint16(words[i+2]),
				Proto:   uint8(words[i+3]),
			},
			Backend: wordIP(words[i+4]),
		})
	}
	return entries, nil
}
