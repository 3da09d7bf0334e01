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
//
// Entries live in an open-addressed array of packed 16-byte slots
// (flowSlot), probed linearly from a mix of the packed key and grown by
// doubling at 7/8 load, so a lookup compares two words and usually
// touches one cache line. The table hashes its own key: callers pass
// the key they serve, which may differ from the one their router hashed
// (the fleet rewrites the destination to the replica's VIP first).
type FlowTable struct {
	// slots is nil until the first entry, then a power of two long;
	// n counts the occupied ones. backends holds each slot's backend by
	// its 1-based index.
	slots    []flowSlot
	n        int
	backends []net.IPAddr
	max      int
	// sorted is the table as of the last Snapshot, in key order, and
	// pinned lists the entries pinned under new keys since then: the
	// next Snapshot sorts only pinned and merges it in. stale means some
	// change since the last Snapshot was not a new-key pin (a restore,
	// an eviction, an overwritten pin, or no Snapshot yet), so the next
	// one rebuilds from the slots and pinned is not kept meanwhile.
	sorted []ConnEntry
	pinned []ConnEntry
	stale  bool
	// hits/misses count lookups against established flows vs new-flow
	// pins; tableFull counts pins refused because the table was at
	// capacity — those flows silently lose stickiness, so the counter
	// is the operator's only signal.
	hits, misses, tableFull int64
}

// flowSlot is one table slot: the key packed by keyOrder (hi = SrcIP‖
// DstIP, the low keyBits of lo = Proto‖SrcPort‖DstPort), with lo's top
// bits holding the 1-based index of the pinned backend in
// FlowTable.backends. lo == 0 marks an empty slot.
type flowSlot struct{ hi, lo uint64 }

const (
	// keyBits is the width of the key part of flowSlot.lo.
	keyBits = 40
	keyMask = 1<<keyBits - 1
	// minSlots is the slot array's length at the first entry.
	minSlots = 8
)

// maxBackends is the most distinct backends one table can index: the
// 24 bits above the key in flowSlot.lo, with 0 reserved for empty.
// Tests lower it to reach the guard.
var maxBackends = 1<<(64-keyBits) - 1

// NewFlowTable returns an empty table bounded at max entries.
func NewFlowTable(max int) *FlowTable {
	return &FlowTable{max: max, stale: true}
}

// Len reports the established flow count.
func (t *FlowTable) Len() int { return t.n }

// Lookup finds an established flow's pinned backend, counting the hit.
func (t *FlowTable) Lookup(k net.FlowKey) (net.IPAddr, bool) {
	b, ok := t.Peek(k)
	if ok {
		t.hits++
	}
	return b, ok
}

// Peek reads an entry without touching the counters (measurement and
// migration use it; the datapath uses Lookup).
func (t *FlowTable) Peek(k net.FlowKey) (net.IPAddr, bool) {
	if t.n == 0 {
		return net.IPAddr{}, false
	}
	i, ok := t.find(keyOrder(k))
	if !ok {
		return net.IPAddr{}, false
	}
	return t.backends[t.slots[i].lo>>keyBits-1], true
}

// find returns the index of the slot holding the packed key (hi, lo),
// or of the empty slot where it would go, and whether it is present.
// The table must have slots. The start slot is a multiply-xorshift mix
// of both words; probe counts from it match uniform hashing's.
func (t *FlowTable) find(hi, lo uint64) (int, bool) {
	mask := uint64(len(t.slots) - 1)
	h := (hi ^ lo*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.lo == 0 {
			return int(i), false
		}
		if s.hi == hi && s.lo&keyMask == lo {
			return int(i), true
		}
	}
}

// Pin records a new flow's backend, counting the miss. A full table
// refuses the pin and counts it: the flow is still served but loses
// stickiness across pool changes.
func (t *FlowTable) Pin(k net.FlowKey, b net.IPAddr) bool {
	t.misses++
	if t.n >= t.max {
		t.tableFull++
		return false
	}
	switch {
	case !t.put(k, b):
		t.stale = true // overwrote an existing key
	case !t.stale:
		t.pinned = append(t.pinned, ConnEntry{Key: k, Backend: b})
	}
	return true
}

// put stores k → b and reports whether k was new.
func (t *FlowTable) put(k net.FlowKey, b net.IPAddr) bool {
	hi, lo := keyOrder(k)
	tag := t.backendIndex(b) << keyBits
	i, ok := 0, false
	if len(t.slots) > 0 {
		i, ok = t.find(hi, lo)
	}
	if ok {
		t.slots[i].lo = lo | tag
		return false
	}
	if (t.n+1)*8 > len(t.slots)*7 {
		t.resize(max(minSlots, 2*len(t.slots)))
		i, _ = t.find(hi, lo)
	}
	t.slots[i] = flowSlot{hi, lo | tag}
	t.n++
	return true
}

// resize moves every entry into a fresh slot array of the given length.
func (t *FlowTable) resize(size int) {
	old := t.slots
	t.slots = make([]flowSlot, size)
	for _, s := range old {
		if s.lo != 0 {
			i, _ := t.find(s.hi, s.lo&keyMask)
			t.slots[i] = s
		}
	}
}

// backendIndex returns b's 1-based index in t.backends, adding b when
// it is new. A full list is first compacted to the backends some entry
// still uses; a table whose entries use every index panics rather than
// let an index wrap into the key bits.
func (t *FlowTable) backendIndex(b net.IPAddr) uint64 {
	if i := slices.Index(t.backends, b); i >= 0 {
		return uint64(i + 1)
	}
	if len(t.backends) >= maxBackends {
		t.rebuild(0)
		if len(t.backends) >= maxBackends {
			panic(fmt.Sprintf("apps: flow table entries use all %d backend indices", maxBackends))
		}
	}
	t.backends = append(t.backends, b)
	return uint64(len(t.backends))
}

// rebuild reinserts every entry not pinned to backend index drop (0
// drops none) into a fresh slot array of the same length, and renumbers
// the backends in order of first use so the list holds only backends
// some entry uses. It reports how many entries it dropped.
func (t *FlowTable) rebuild(drop uint64) int {
	old, oldBackends, before := t.slots, t.backends, t.n
	renum := make([]uint64, len(oldBackends)+1)
	t.slots, t.backends, t.n = make([]flowSlot, len(old)), nil, 0
	for _, s := range old {
		b := s.lo >> keyBits
		if s.lo == 0 || b == drop {
			continue
		}
		if renum[b] == 0 {
			t.backends = append(t.backends, oldBackends[b-1])
			renum[b] = uint64(len(t.backends))
		}
		i, _ := t.find(s.hi, s.lo&keyMask)
		t.slots[i] = flowSlot{s.hi, s.lo&keyMask | renum[b]<<keyBits}
		t.n++
	}
	return before - t.n
}

// EvictBackend removes every flow pinned to a backend and reports how
// many were evicted — the cleanup path for a *failed* backend, whose
// pinned flows would otherwise blackhole forever. It is control-plane
// work: the table is rebuilt without them.
func (t *FlowTable) EvictBackend(b net.IPAddr) int {
	i := slices.Index(t.backends, b)
	if i < 0 {
		return 0
	}
	evicted := t.rebuild(uint64(i + 1))
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
// previous capture in one sequential pass; a restore, an eviction or an
// overwritten pin makes it rebuild from the slots instead.
//
// The result is shared with the table and with every later Snapshot
// that finds nothing new: callers must only read it. The table never
// writes to a slice it has returned, so a capture stays valid, and
// unchanged, across later mutations.
func (t *FlowTable) Snapshot() []ConnEntry {
	switch {
	case t.stale:
		packed := make([]flowSlot, 0, t.n)
		for _, s := range t.slots {
			if s.lo != 0 {
				packed = append(packed, s)
			}
		}
		slices.SortFunc(packed, compareSlots)
		out := make([]ConnEntry, len(packed))
		for i, s := range packed {
			out[i] = t.entry(s)
		}
		t.sorted, t.stale = out, false
	case len(t.pinned) > 0:
		t.sorted = mergePins(make([]ConnEntry, 0, len(t.sorted)+len(t.pinned)), t.sorted, t.pinned)
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

// packedEntry is a pinned entry with its key packed by keyOrder, so
// sorting and merging pins compare words.
type packedEntry struct {
	hi, lo uint64
	e      ConnEntry
}

// comparePacked orders entries by their packed keys.
func comparePacked(a, b packedEntry) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// sortsBefore reports whether e's key orders before the packed key
// (hi, lo).
func sortsBefore(e *ConnEntry, hi, lo uint64) bool {
	h, l := keyOrder(e.Key)
	return h < hi || h == hi && l < lo
}

// mergePins appends to dst the merge of a sorted entry list and the
// pins, none of whose keys is in a. The pins are packed and sorted on
// the stack when there are at most packedOnStack of them. The merge
// walks a once, front to back: each run of a that sorts before the
// next pin is found by galloping forward from the run's start and
// copied in one append, so it reads only entries it is about to copy.
func mergePins(dst, a, pins []ConnEntry) []ConnEntry {
	var stack [packedOnStack]packedEntry
	packed := stack[:0]
	if len(pins) > len(stack) {
		packed = make([]packedEntry, 0, len(pins))
	}
	for _, e := range pins {
		hi, lo := keyOrder(e.Key)
		packed = append(packed, packedEntry{hi: hi, lo: lo, e: e})
	}
	slices.SortFunc(packed, comparePacked)
	for i := range packed {
		p := &packed[i]
		// Probe a[0], a[1], a[3], a[7], ... until one sorts after p,
		// then bisect the last step.
		step := 1
		for step <= len(a) && sortsBefore(&a[step-1], p.hi, p.lo) {
			step *= 2
		}
		lo, hi := step/2, min(step, len(a))
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if sortsBefore(&a[mid], p.hi, p.lo) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		dst = append(append(dst, a[:lo]...), p.e)
		a = a[lo:]
	}
	return append(dst, a...)
}

// pinnedKeep is the largest pin list whose array Snapshot keeps.
const pinnedKeep = 32

// packedOnStack is the largest pin list mergePins packs without
// allocating: a few probe intervals' worth of new flows.
const packedOnStack = 64

// Restore replays snapshot entries into the table, respecting the
// capacity bound; it reports how many were added and how many dropped.
// Counters are untouched: a restore is control-plane traffic, not
// datapath lookups.
func (t *FlowTable) Restore(entries []ConnEntry) (added, dropped int) {
	for _, e := range entries {
		if t.n >= t.max {
			if _, dup := t.Peek(e.Key); !dup {
				dropped++
				continue
			}
		}
		t.put(e.Key, e.Backend)
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

// compareSlots orders occupied slots by their keys, ignoring the
// backend index above them.
func compareSlots(a, b flowSlot) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo<<(64-keyBits), b.lo<<(64-keyBits))
}

// entry unpacks an occupied slot.
func (t *FlowTable) entry(s flowSlot) ConnEntry {
	return ConnEntry{
		Key: net.FlowKey{
			SrcIP: wordIP(uint32(s.hi >> 32)), DstIP: wordIP(uint32(s.hi)),
			Proto: uint8(s.lo >> 32), SrcPort: uint16(s.lo >> 16), DstPort: uint16(s.lo),
		},
		Backend: t.backends[s.lo>>keyBits-1],
	}
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
// FlowSnapshotLen(len(entries)). Whole entries encode straight into
// dst; only an entry a row edge splits is staged.
func AppendFlowSnapshot(dst []uint32, entries []ConnEntry, lo, hi int) []uint32 {
	if lo < flowSnapHeaderWords {
		header := [flowSnapHeaderWords]uint32{flowSnapMagic<<16 | FlowSnapshotVersion, uint32(len(entries))}
		dst = append(dst, header[lo:min(hi, flowSnapHeaderWords)]...)
		lo = flowSnapHeaderWords
	}
	if lo >= hi {
		return dst
	}
	i, off := (lo-flowSnapHeaderWords)/flowSnapEntryWords, (lo-flowSnapHeaderWords)%flowSnapEntryWords
	if off > 0 {
		words := entryWords(entries[i])
		n := min(flowSnapEntryWords-off, hi-lo)
		dst = append(dst, words[off:off+n]...)
		lo += n
		i++
	}
	whole := (hi - lo) / flowSnapEntryWords
	start := len(dst)
	dst = slices.Grow(dst, whole*flowSnapEntryWords)[:start+whole*flowSnapEntryWords]
	out := dst[start:]
	for j := range entries[i : i+whole] {
		e := &entries[i+j]
		w := out[j*flowSnapEntryWords : (j+1)*flowSnapEntryWords : (j+1)*flowSnapEntryWords]
		w[0] = ipWord(e.Key.SrcIP)
		w[1] = ipWord(e.Key.DstIP)
		w[2] = uint32(e.Key.SrcPort)<<16 | uint32(e.Key.DstPort)
		w[3] = uint32(e.Key.Proto)
		w[4] = ipWord(e.Backend)
	}
	if lo += whole * flowSnapEntryWords; lo < hi {
		words := entryWords(entries[i+whole])
		dst = append(dst, words[:hi-lo]...)
	}
	return dst
}

// entryWords encodes one entry's words.
func entryWords(e ConnEntry) [flowSnapEntryWords]uint32 {
	return [flowSnapEntryWords]uint32{
		ipWord(e.Key.SrcIP),
		ipWord(e.Key.DstIP),
		uint32(e.Key.SrcPort)<<16 | uint32(e.Key.DstPort),
		uint32(e.Key.Proto),
		ipWord(e.Backend),
	}
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
	return DecodeFlowSnapshotInto(nil, words)
}

// DecodeFlowSnapshotInto is DecodeFlowSnapshot decoding into dst's
// storage: the entries overwrite dst from index 0, reusing its array
// when it holds them. When it does not, the new array has room for an
// eighth more, so a table that grows by a few pins between decodes
// reuses it for the next several. The whole stream is validated before
// the first write, so a failed decode returns dst untouched.
func DecodeFlowSnapshotInto(dst []ConnEntry, words []uint32) ([]ConnEntry, error) {
	want, err := FlowSnapshotWords(words)
	if err != nil {
		return dst, err
	}
	if len(words) != want {
		return dst, fmt.Errorf("apps: flow snapshot has %d words, header declares %d", len(words), want)
	}
	for i := flowSnapHeaderWords; i < want; i += flowSnapEntryWords {
		if words[i+3] > 0xff {
			return dst, fmt.Errorf("apps: flow snapshot entry %d proto word %#x out of range",
				(i-flowSnapHeaderWords)/flowSnapEntryWords, words[i+3])
		}
	}
	n := int(words[1])
	if cap(dst) < n {
		dst = make([]ConnEntry, n, n+n/8)
	}
	dst = dst[:n]
	body := words[flowSnapHeaderWords:]
	for i := range dst {
		w := body[i*flowSnapEntryWords : (i+1)*flowSnapEntryWords : (i+1)*flowSnapEntryWords]
		e := &dst[i]
		e.Key.SrcIP = wordIP(w[0])
		e.Key.DstIP = wordIP(w[1])
		e.Key.SrcPort = uint16(w[2] >> 16)
		e.Key.DstPort = uint16(w[2])
		e.Key.Proto = uint8(w[3])
		e.Backend = wordIP(w[4])
	}
	return dst, nil
}
