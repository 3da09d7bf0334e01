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
	// sorted is the capture: the table as of the last Capture, packed
	// like the slots and in key order (compareSlots). capBackends is the
	// backend list its indices point into, as of that Capture: backends
	// only grows by append and rebuild gives it a new array, so the
	// capture reads the same until the next Capture whatever the table
	// does meanwhile. pinned lists the slots pinned under new keys since
	// then: the next Capture sorts only pinned and merges it in place.
	// stale means some change since the last Capture was not a new-key
	// pin (a restore, an overwritten pin, a rebuild, or no Capture yet),
	// so the next one refills from the slots and pinned is not kept
	// meanwhile.
	sorted      []flowSlot
	capBackends []net.IPAddr
	pinned      []flowSlot
	stale       bool
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
	switch s, fresh := t.put(k, b); {
	case !fresh:
		t.stale = true // overwrote an existing key
	case !t.stale:
		t.pinned = append(t.pinned, s)
	}
	return true
}

// put stores k → b and returns the slot it wrote and whether k was new.
func (t *FlowTable) put(k net.FlowKey, b net.IPAddr) (flowSlot, bool) {
	hi, lo := keyOrder(k)
	s := flowSlot{hi, lo | t.backendIndex(b)<<keyBits}
	i, ok := 0, false
	if len(t.slots) > 0 {
		i, ok = t.find(hi, lo)
	}
	if ok {
		t.slots[i] = s
		return s, false
	}
	if (t.n+1)*8 > len(t.slots)*7 {
		t.resize(max(minSlots, 2*len(t.slots)))
		i, _ = t.find(hi, lo)
	}
	t.slots[i] = s
	t.n++
	return s, true
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
// some entry uses. It reports how many entries it dropped. The
// renumbering marks the capture stale: pins made since the last Capture
// carry the old numbers.
func (t *FlowTable) rebuild(drop uint64) int {
	old, oldBackends, before := t.slots, t.backends, t.n
	t.stale = true
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
	return t.rebuild(uint64(i + 1))
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

// Capture brings the table's capture up to date and returns the length
// in words of its encoded stream, which AppendCaptureWords serves: the
// consistent capture the export side of migration stages, sorted by the
// key's wire bytes (SrcIP, DstIP, Proto, SrcPort, DstPort). It sorts
// only the flows pinned since the last Capture and merges them into the
// capture in place; a restore, an overwritten pin or a rebuild makes it
// refill the capture from the slots instead. Either way the capture's
// array is reused while it holds the table; one that does not is
// replaced by one with an eighth of headroom, so a table growing by a
// few pins per capture reuses it for the next several.
func (t *FlowTable) Capture() int {
	switch {
	case t.stale:
		if cap(t.sorted) < t.n {
			t.sorted = make([]flowSlot, 0, t.n+t.n/8)
		}
		t.sorted = t.sorted[:0]
		for _, s := range t.slots {
			if s.lo != 0 {
				t.sorted = append(t.sorted, s)
			}
		}
		slices.SortFunc(t.sorted, compareSlots)
		t.stale = false
	case len(t.pinned) > 0:
		t.sorted = mergePinned(t.sorted, t.pinned)
	}
	t.capBackends = t.backends
	// Keep a small pin list's array for the next round of pins, but let
	// a burst (a table filling between two captures) go rather than hold
	// its peak size for the table's lifetime.
	t.pinned = t.pinned[:0]
	if cap(t.pinned) > pinnedKeep {
		t.pinned = nil
	}
	return FlowSnapshotLen(len(t.sorted))
}

// mergePinned merges pins, none of whose keys is in the sorted capture
// a, into a and returns the result. It sorts the pins, then fills the
// merged array from the back, so the merge runs in a's own array when
// it has room: each run of a that sorts after the next pin moves up
// with one copy, found by bisecting what remains of a. An a without
// room is merged into a new array of n + k + (n+k)/8 entries.
func mergePinned(a, pins []flowSlot) []flowSlot {
	slices.SortFunc(pins, compareSlots)
	n, k := len(a), len(pins)
	grown := cap(a) < n+k
	var dst []flowSlot
	if grown {
		dst = make([]flowSlot, n+k, n+k+(n+k)/8)
	} else {
		dst = a[:n+k]
	}
	end := n
	for j := k - 1; j >= 0; j-- {
		i, _ := slices.BinarySearchFunc(a[:end], pins[j], compareSlots)
		copy(dst[i+j+1:], a[i:end])
		dst[i+j] = pins[j]
		end = i
	}
	if grown {
		copy(dst, a[:end])
	}
	return dst
}

// pinnedKeep is the largest pin list whose array Capture keeps. At 64
// a storm table's list survives a probe interval's pins instead of
// being regrown from nil after each capture; a table keeps at most a
// 1 KiB array.
const pinnedKeep = 64

// AppendCaptureWords appends words [lo, hi) of the capture's encoded
// stream (the version-1 flow snapshot encoding) to dst, so a reader can
// be served one row at a time without staging the stream. hi must not
// exceed the length Capture returned. Whole entries encode straight
// from the packed slots into dst; only an entry a row edge splits is
// staged. The stream is the one the last Capture fixed, however the
// table has changed since.
func (t *FlowTable) AppendCaptureWords(dst []uint32, lo, hi int) []uint32 {
	if lo < flowSnapHeaderWords {
		header := [flowSnapHeaderWords]uint32{flowSnapMagic<<16 | FlowSnapshotVersion, uint32(len(t.sorted))}
		dst = append(dst, header[lo:min(hi, flowSnapHeaderWords)]...)
		lo = flowSnapHeaderWords
	}
	if lo >= hi {
		return dst
	}
	i, off := (lo-flowSnapHeaderWords)/flowSnapEntryWords, (lo-flowSnapHeaderWords)%flowSnapEntryWords
	var staged [flowSnapEntryWords]uint32
	if off > 0 {
		t.putCaptureWords(staged[:], t.sorted[i])
		n := min(flowSnapEntryWords-off, hi-lo)
		dst = append(dst, staged[off:off+n]...)
		lo += n
		i++
	}
	whole := (hi - lo) / flowSnapEntryWords
	start := len(dst)
	dst = slices.Grow(dst, whole*flowSnapEntryWords)[:start+whole*flowSnapEntryWords]
	for j, s := range t.sorted[i : i+whole] {
		t.putCaptureWords(dst[start+j*flowSnapEntryWords:], s)
	}
	if lo += whole * flowSnapEntryWords; lo < hi {
		t.putCaptureWords(staged[:], t.sorted[i+whole])
		dst = append(dst, staged[:hi-lo]...)
	}
	return dst
}

// putCaptureWords encodes one captured slot into w's first words: the
// key's fields straight from the packed words, the backend through the
// capture's backend list.
func (t *FlowTable) putCaptureWords(w []uint32, s flowSlot) {
	_ = w[flowSnapEntryWords-1]
	w[0] = uint32(s.hi >> 32)
	w[1] = uint32(s.hi)
	w[2] = uint32(s.lo) // SrcPort<<16 | DstPort
	w[3] = uint32(s.lo>>32) & 0xff
	w[4] = ipWord(t.capBackends[s.lo>>keyBits-1])
}

// Snapshot brings the capture up to date (Capture) and returns it
// unpacked into a new entry list the caller owns. The command path
// reads the capture's words instead; the drills' ground truth and the
// tests read entries.
func (t *FlowTable) Snapshot() []ConnEntry {
	t.Capture()
	out := make([]ConnEntry, len(t.sorted))
	for i, s := range t.sorted {
		out[i] = ConnEntry{
			Key: net.FlowKey{
				SrcIP: wordIP(uint32(s.hi >> 32)), DstIP: wordIP(uint32(s.hi)),
				Proto: uint8(s.lo >> 32), SrcPort: uint16(s.lo >> 16), DstPort: uint16(s.lo),
			},
			Backend: t.capBackends[s.lo>>keyBits-1],
		}
	}
	return out
}

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
	out := make([]uint32, flowSnapHeaderWords, FlowSnapshotLen(len(entries)))
	out[0], out[1] = flowSnapMagic<<16|FlowSnapshotVersion, uint32(len(entries))
	for _, e := range entries {
		out = append(out,
			ipWord(e.Key.SrcIP),
			ipWord(e.Key.DstIP),
			uint32(e.Key.SrcPort)<<16|uint32(e.Key.DstPort),
			uint32(e.Key.Proto),
			ipWord(e.Backend))
	}
	return out
}

// FlowSnapshotLen reports how many words the stream of n entries holds.
func FlowSnapshotLen(n int) int { return flowSnapHeaderWords + flowSnapEntryWords*n }

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
