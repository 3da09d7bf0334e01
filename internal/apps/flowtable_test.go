package apps

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"harmonia/internal/net"
)

func ftKey(port uint16) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(1, 2, 3, 4), DstIP: net.IPv4(20, 0, 0, 1),
		Proto: net.ProtoTCP, SrcPort: port, DstPort: 80,
	}
}

func TestFlowTableFullCountsAndRefuses(t *testing.T) {
	ft := NewFlowTable(2)
	b := net.IPv4(10, 0, 0, 1)
	if !ft.Pin(ftKey(1), b) || !ft.Pin(ftKey(2), b) {
		t.Fatal("pins under capacity refused")
	}
	if ft.Pin(ftKey(3), b) {
		t.Error("pin accepted beyond capacity")
	}
	if _, ok := ft.Peek(ftKey(3)); ok {
		t.Error("refused pin is present")
	}
	// Established flows keep working at capacity.
	if _, ok := ft.Lookup(ftKey(1)); !ok {
		t.Error("established flow lost at capacity")
	}
	hits, misses, full := ft.Stats()
	if hits != 1 || misses != 3 || full != 1 {
		t.Errorf("stats hits=%d misses=%d tableFull=%d, want 1/3/1", hits, misses, full)
	}
}

func TestFlowTableEvictBackend(t *testing.T) {
	ft := NewFlowTable(100)
	dead, live := net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2)
	for port := uint16(1); port <= 10; port++ {
		b := live
		if port%2 == 0 {
			b = dead
		}
		ft.Pin(ftKey(port), b)
	}
	if got := ft.EvictBackend(dead); got != 5 {
		t.Fatalf("evicted %d flows, want 5", got)
	}
	if ft.Len() != 5 {
		t.Errorf("table holds %d flows after eviction, want 5", ft.Len())
	}
	for port := uint16(1); port <= 10; port++ {
		_, ok := ft.Peek(ftKey(port))
		if want := port%2 == 1; ok != want {
			t.Errorf("flow %d present=%v, want %v", port, ok, want)
		}
	}
}

func TestFlowSnapshotRoundTrip(t *testing.T) {
	ft := NewFlowTable(100)
	for port := uint16(1); port <= 7; port++ {
		ft.Pin(ftKey(port), net.IPv4(10, 0, 0, byte(port%3+1)))
	}
	snap := ft.Snapshot()
	if len(snap) != 7 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	// Deterministic export: two captures agree entry for entry.
	again := ft.Snapshot()
	for i := range snap {
		if snap[i] != again[i] {
			t.Fatalf("snapshot order unstable at %d", i)
		}
	}
	words := EncodeFlowSnapshot(snap)
	if want, err := FlowSnapshotWords(words); err != nil || want != len(words) {
		t.Fatalf("declared %d words (err %v), encoded %d", want, err, len(words))
	}
	entries, err := DecodeFlowSnapshot(words)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewFlowTable(100)
	added, dropped := dst.Restore(entries)
	if added != 7 || dropped != 0 {
		t.Fatalf("restore added %d dropped %d", added, dropped)
	}
	for _, e := range snap {
		b, ok := dst.Peek(e.Key)
		if !ok || b != e.Backend {
			t.Errorf("flow %v: got %v/%v, want %v", e.Key, b, ok, e.Backend)
		}
	}
}

func TestFlowSnapshotRestoreRespectsCapacity(t *testing.T) {
	src := NewFlowTable(10)
	for port := uint16(1); port <= 5; port++ {
		src.Pin(ftKey(port), net.IPv4(10, 0, 0, 1))
	}
	dst := NewFlowTable(3)
	added, dropped := dst.Restore(src.Snapshot())
	if added != 3 || dropped != 2 {
		t.Errorf("restore into small table: added %d dropped %d, want 3/2", added, dropped)
	}
}

func TestFlowSnapshotDecodeRejectsCorruption(t *testing.T) {
	words := EncodeFlowSnapshot([]ConnEntry{{Key: ftKey(1), Backend: net.IPv4(10, 0, 0, 1)}})

	if _, err := DecodeFlowSnapshot(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := DecodeFlowSnapshot(words[:len(words)-1]); err == nil {
		t.Error("truncated stream accepted")
	}
	bad := append([]uint32(nil), words...)
	bad[0] = 0xDEAD<<16 | FlowSnapshotVersion
	if _, err := DecodeFlowSnapshot(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]uint32(nil), words...)
	bad[0] = flowSnapMagic<<16 | (FlowSnapshotVersion + 1)
	if _, err := DecodeFlowSnapshot(bad); err == nil {
		t.Error("future version accepted")
	}
	// A proto word above 0xff would decode to a key that re-encodes
	// differently from the stream that carried it.
	bad = append([]uint32(nil), words...)
	bad[flowSnapHeaderWords+3] |= 0x100
	if _, err := DecodeFlowSnapshot(bad); err == nil {
		t.Error("out-of-range proto word accepted")
	}
}

// oracleKey is the reference order snapshots must follow: the key's 13
// wire bytes (SrcIP, DstIP, Proto, SrcPort, DstPort big-endian),
// compared as a string.
func oracleKey(k net.FlowKey) string {
	var buf [13]byte
	copy(buf[0:4], k.SrcIP[:])
	copy(buf[4:8], k.DstIP[:])
	buf[8] = k.Proto
	binary.BigEndian.PutUint16(buf[9:11], k.SrcPort)
	binary.BigEndian.PutUint16(buf[11:13], k.DstPort)
	return string(buf[:])
}

// oracleSnapshot is the table's contents, read slot by slot, sorted by
// oracleKey.
func oracleSnapshot(ft *FlowTable) []ConnEntry {
	out := slotEntries(ft)
	sort.Slice(out, func(i, j int) bool { return oracleKey(out[i].Key) < oracleKey(out[j].Key) })
	return out
}

// slotEntries unpacks every occupied slot, in slot order.
func slotEntries(ft *FlowTable) []ConnEntry {
	var out []ConnEntry
	for _, s := range ft.slots {
		if s.lo != 0 {
			out = append(out, slotEntry(ft, s))
		}
	}
	return out
}

// slotEntry unpacks one occupied slot.
func slotEntry(ft *FlowTable, s flowSlot) ConnEntry {
	var k net.FlowKey
	binary.BigEndian.PutUint32(k.SrcIP[:], uint32(s.hi>>32))
	binary.BigEndian.PutUint32(k.DstIP[:], uint32(s.hi))
	k.Proto, k.SrcPort, k.DstPort = uint8(s.lo>>32), uint16(s.lo>>16), uint16(s.lo)
	return ConnEntry{Key: k, Backend: ft.backends[s.lo>>keyBits-1]}
}

// randKey draws keys from a small space, so pins collide with existing
// entries and restores carry duplicates; all five fields vary, so the
// order is tested on each of them.
func randKey(rng *rand.Rand) net.FlowKey { return smallKey(rng.Intn) }

// smallKey is randKey's space drawn from any source of bounded ints.
func smallKey(intn func(int) int) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(byte(intn(3)), 0, byte(intn(2)), byte(intn(4))),
		DstIP: net.IPv4(20, byte(intn(2)), 0, byte(intn(3)*127)),
		Proto: []uint8{net.ProtoTCP, net.ProtoUDP, 0xff}[intn(3)],
		// Ports straddle the byte boundary so big-endian order matters.
		SrcPort: uint16(intn(4)) << (8 * intn(2)),
		DstPort: uint16(intn(3)) << (8 * intn(2)),
	}
}

// TestFlowTableSnapshotProperty drives seeded random interleavings of
// every mutation and checks each Snapshot against the oracle order, and
// that no earlier Snapshot result changes afterwards.
func TestFlowTableSnapshotProperty(t *testing.T) {
	backends := []net.IPAddr{net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), net.IPv4(10, 0, 0, 3)}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFlowTable(8 + rng.Intn(200))
		type kept struct {
			got, want []ConnEntry
		}
		var earlier []kept
		refused, merges := 0, 0
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(100); {
			case op < 60:
				if !ft.Pin(randKey(rng), backends[rng.Intn(len(backends))]) {
					refused++
				}
			case op < 68:
				entries := make([]ConnEntry, rng.Intn(24))
				for i := range entries {
					entries[i] = ConnEntry{Key: randKey(rng), Backend: backends[rng.Intn(len(backends))]}
					if i > 0 && rng.Intn(4) == 0 {
						entries[i].Key = entries[rng.Intn(i)].Key
					}
				}
				ft.Restore(entries)
			case op < 72:
				ft.EvictBackend(backends[rng.Intn(len(backends))])
			case op < 76:
				// Capacity drops below the live count as often as not.
				ft.max = ft.Len()/2 + rng.Intn(ft.Len()+8)
			default:
				if !ft.stale && len(ft.pinned) > 0 {
					merges++
				}
				got, want := ft.Snapshot(), oracleSnapshot(ft)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: snapshot %v, want %v", seed, step, got, want)
				}
				earlier = append(earlier, kept{got, want})
			}
		}
		for i, k := range earlier {
			if !slices.Equal(k.got, k.want) {
				t.Fatalf("seed %d: snapshot %d changed after later mutations", seed, i)
			}
		}
		if refused == 0 || merges == 0 {
			t.Errorf("seed %d: %d refused pins, %d merging snapshots; want both exercised", seed, refused, merges)
		}
	}

	// Placed pins: batches that land below, between and above the keys
	// already captured, merged and checked against the oracle, with
	// restores, evictions and overwrites forcing rebuilds in between.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := NewFlowTable(1 << 14)
		used := map[int]bool{}
		for i := 1024; i < 3072; i += 4 {
			ft.Pin(keyAt(i), backends[0])
			used[i] = true
		}
		ft.Snapshot()
		var earlier [][]ConnEntry
		var wants [][]ConnEntry
		for round := 0; round < 30; round++ {
			for pins := 1 + rng.Intn(24); pins > 0; {
				var i int
				switch rng.Intn(3) {
				case 0:
					i = rng.Intn(1024) // below every captured key
				case 1:
					i = 1024 + rng.Intn(2048) // between captured keys
				default:
					i = 3072 + rng.Intn(1024) // above every captured key
				}
				if used[i] {
					continue
				}
				used[i] = true
				ft.Pin(keyAt(i), backends[rng.Intn(len(backends))])
				pins--
			}
			if ft.stale || len(ft.pinned) == 0 {
				t.Fatalf("seed %d round %d: pins did not queue a merge", seed, round)
			}
			got, want := ft.Snapshot(), oracleSnapshot(ft)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: merged snapshot differs from a full rebuild", seed, round)
			}
			earlier, wants = append(earlier, got), append(wants, want)
			switch round % 5 {
			case 1:
				ft.Restore([]ConnEntry{{Key: keyAt(5000 + round), Backend: backends[1]}})
			case 2:
				ft.EvictBackend(backends[2])
			case 3:
				ft.Pin(got[rng.Intn(len(got))].Key, backends[0]) // overwrite
			default:
				continue
			}
			if !ft.stale {
				t.Fatalf("seed %d round %d: mutation did not force a rebuild", seed, round)
			}
			if got, want := ft.Snapshot(), oracleSnapshot(ft); !slices.Equal(got, want) {
				t.Fatalf("seed %d round %d: rebuilt snapshot differs from the oracle", seed, round)
			}
		}
		for i := range earlier {
			if !slices.Equal(earlier[i], wants[i]) {
				t.Fatalf("seed %d: merged snapshot %d changed after later mutations", seed, i)
			}
		}
	}
}

// keyAt is the i-th key of a space whose wire order is index order.
func keyAt(i int) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: net.IPv4(20, 0, 0, 1),
		Proto: net.ProtoTCP, SrcPort: 1024, DstPort: 80,
	}
}

// TestFlowSnapshotRestoreIdempotent replays one snapshot into a table
// twice: the second replay must leave the same table and the same next
// Snapshot, the property delta replay from row 0 relies on.
func TestFlowSnapshotRestoreIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewFlowTable(1 << 10)
	for i := 0; i < 300; i++ {
		src.Pin(randKey(rng), net.IPv4(10, 0, 0, byte(rng.Intn(4)+1)))
	}
	entries, err := DecodeFlowSnapshot(EncodeFlowSnapshot(src.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{1 << 10, len(entries) / 2} {
		dst := NewFlowTable(max)
		dst.Pin(randKey(rng), net.IPv4(10, 0, 0, 9))
		dst.Restore(entries)
		first := dst.Snapshot()
		present := 0
		for _, e := range entries {
			if _, ok := dst.Peek(e.Key); ok {
				present++
			}
		}
		// At capacity only the keys already present are re-added; the
		// rest are dropped again, and nothing changes.
		added, dropped := dst.Restore(entries)
		if again := dst.Snapshot(); !slices.Equal(first, again) {
			t.Errorf("max %d: second replay changed the table: %d entries, then %d", max, len(first), len(again))
		}
		if added != present || dropped != len(entries)-present {
			t.Errorf("max %d: second replay added %d dropped %d, want %d/%d",
				max, added, dropped, present, len(entries)-present)
		}
	}
}

// TestFlowSnapshotEncodeRange serves a capture's stream in command-sized
// pieces and checks the pieces join to the encoding of the table's
// Snapshot, then checks every (lo, hi) range of small tables' captures,
// the empty one included, so each split inside, at and across entry
// boundaries appends exactly whole[lo:hi] after what dst held.
func TestFlowSnapshotEncodeRange(t *testing.T) {
	table := func(n int) *FlowTable {
		ft := NewFlowTable(1 << 10)
		for i := range n {
			ft.Pin(ftKey(uint16(n-i)), net.IPv4(10, 0, 0, byte(i%7+1)))
		}
		return ft
	}
	ft := table(120)
	total := ft.Capture()
	whole := EncodeFlowSnapshot(ft.Snapshot())
	if total != len(whole) {
		t.Fatalf("Capture reports %d words, the stream has %d", total, len(whole))
	}
	for _, step := range []int{1, 3, 5, 7, 253} {
		var joined []uint32
		for lo := 0; lo < total; lo += step {
			joined = ft.AppendCaptureWords(joined, lo, min(lo+step, total))
		}
		if !slices.Equal(joined, whole) {
			t.Errorf("step %d: pieces differ from the whole stream", step)
		}
	}
	prefix := []uint32{0xAAAA, 0xBBBB}
	for _, n := range []int{0, 1, 2, 4} {
		small := table(n)
		total := small.Capture()
		whole := EncodeFlowSnapshot(small.Snapshot())
		for lo := 0; lo <= total; lo++ {
			for hi := lo; hi <= total; hi++ {
				got := small.AppendCaptureWords(slices.Clip(prefix), lo, hi)
				if want := append(slices.Clip(prefix), whole[lo:hi]...); !slices.Equal(got, want) {
					t.Fatalf("%d entries [%d, %d): got %x, want %x", n, lo, hi, got, want)
				}
			}
		}
	}
}

// TestFlowCaptureStableWhileRead reads a capture row by row, as the
// command path does, with a mutation landing between row 0 and the last
// row: the rows must still join to the stream as of row 0, and the next
// Capture must see the mutation. The backend index space is lowered to
// four so a pin to a fifth backend compacts the backend list mid-read.
func TestFlowCaptureStableWhileRead(t *testing.T) {
	defer func(n int) { maxBackends = n }(maxBackends)
	maxBackends = 4
	b := func(i int) net.IPAddr { return net.IPv4(10, 0, 0, byte(i)) }
	mutations := []struct {
		name string
		do   func(ft *FlowTable)
	}{
		{"pin", func(ft *FlowTable) { ft.Pin(keyAt(1), b(2)) }},
		{"overwrite", func(ft *FlowTable) { ft.Pin(keyAt(8), b(3)) }},
		{"evict", func(ft *FlowTable) { ft.EvictBackend(b(1)) }},
		{"restore", func(ft *FlowTable) {
			ft.Restore([]ConnEntry{{Key: keyAt(3), Backend: b(2)}, {Key: keyAt(4), Backend: b(3)}})
		}},
		// keyAt(0) alone uses backend 4: moving it leaves an unused index,
		// and a fifth backend compacts the list to the three in use.
		{"compact", func(ft *FlowTable) {
			ft.Pin(keyAt(0), b(1))
			ft.Pin(keyAt(5), b(5))
			if len(ft.backends) != 4 || ft.backends[3] != b(5) {
				t.Fatalf("backend list %v was not compacted", ft.backends)
			}
		}},
	}
	for _, m := range mutations {
		for _, width := range []int{3, 5, 7, 253} {
			ft := NewFlowTable(1 << 10)
			ft.Pin(keyAt(0), b(4))
			for i := 1; i < 120; i++ {
				ft.Pin(keyAt(2*i+6), b(i%3+1))
			}
			ft.Capture()
			ft.Pin(keyAt(2), b(2)) // a pending merge, so row 0 merges
			want := EncodeFlowSnapshot(oracleSnapshot(ft))
			total := ft.Capture()
			var got []uint32
			for lo := 0; lo < total; lo += width {
				if lo == width {
					m.do(ft)
				}
				got = ft.AppendCaptureWords(got, lo, min(lo+width, total))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, width %d: rows read across the mutation differ from the capture at row 0", m.name, width)
			}
			if got := captureEntries(t, ft); !slices.Equal(got, oracleSnapshot(ft)) {
				t.Errorf("%s, width %d: the next capture misses the mutation", m.name, width)
			}
		}
	}
}

// captureEntries brings ft's capture up to date and decodes its whole
// stream.
func captureEntries(t testing.TB, ft *FlowTable) []ConnEntry {
	t.Helper()
	entries, err := DecodeFlowSnapshot(ft.AppendCaptureWords(nil, 0, ft.Capture()))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestFlowCaptureMergesInPlace pins flows between captures while the
// capture's array has headroom for them: each capture merges the pins
// in place and allocates nothing.
func TestFlowCaptureMergesInPlace(t *testing.T) {
	ft := NewFlowTable(1 << 12)
	for i := range 650 {
		ft.Pin(keyAt(2*i+1), net.IPv4(10, 0, 0, byte(i%8+1)))
	}
	ft.Capture()
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		// One pin lands among the captured keys, one after them all.
		ft.Pin(keyAt(2*next), net.IPv4(10, 0, 0, 9))
		ft.Pin(keyAt(4000+next), net.IPv4(10, 0, 0, 1))
		next++
		ft.Capture()
	})
	if allocs != 0 {
		t.Errorf("capturing pins that fit the headroom allocates %.1f objects, want 0", allocs)
	}
	if got := captureEntries(t, ft); !slices.Equal(got, oracleSnapshot(ft)) {
		t.Errorf("merged capture holds %d entries, differing from the table's %d", len(got), ft.Len())
	}
}

// flowModel is the reference a FlowTable is checked against: a plain
// map with the table's capacity rule and counters.
type flowModel struct {
	conns                   map[net.FlowKey]net.IPAddr
	max                     int
	hits, misses, tableFull int64
}

func (m *flowModel) pin(k net.FlowKey, b net.IPAddr) bool {
	m.misses++
	if len(m.conns) >= m.max {
		m.tableFull++
		return false
	}
	m.conns[k] = b
	return true
}

func (m *flowModel) restore(entries []ConnEntry) (added, dropped int) {
	for _, e := range entries {
		if _, dup := m.conns[e.Key]; !dup && len(m.conns) >= m.max {
			dropped++
			continue
		}
		m.conns[e.Key] = e.Backend
		added++
	}
	return added, dropped
}

func (m *flowModel) evict(b net.IPAddr) int {
	n := 0
	for k, have := range m.conns {
		if have == b {
			delete(m.conns, k)
			n++
		}
	}
	return n
}

// checkFlowOps drives a table and the map model with one operation
// stream drawn from intn (Pin, Lookup, Peek, Restore with duplicates,
// EvictBackend, a rebound capacity and Snapshot), for at most steps operations or
// until done reports the source spent. Keys come from the small space
// (smallKey) or, when wide, from random source addresses and ports,
// which grow the table through its doublings. After every operation
// the return values, Len, Stats and the slots' contents must equal the
// model's; every capture, decoded from its stream and as a Snapshot,
// must equal the model in wire order, and no Snapshot may change
// afterwards.
func checkFlowOps(t testing.TB, intn func(int) int, done func() bool, steps int, wide bool) {
	backends := []net.IPAddr{net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2), net.IPv4(10, 0, 0, 3), {}}
	bound := 1 + intn(1<<12)
	ft, m := NewFlowTable(bound), &flowModel{conns: map[net.FlowKey]net.IPAddr{}, max: bound}
	var seen []net.FlowKey // every key drawn, so lookups and pins repeat them
	key := func() net.FlowKey {
		if len(seen) > 0 && intn(2) == 0 {
			return seen[max(0, len(seen)-64)+intn(min(len(seen), 64))]
		}
		k := smallKey(intn)
		if wide {
			k.SrcIP = net.IPv4(byte(intn(256)), byte(intn(256)), byte(intn(256)), byte(intn(256)))
			k.SrcPort = uint16(intn(1 << 16))
		}
		seen = append(seen, k)
		return k
	}
	backend := func() net.IPAddr { return backends[intn(len(backends))] }
	type capture struct{ got, want []ConnEntry }
	var captures []capture
	for step := 0; step < steps && !done(); step++ {
		var op string
		switch r := intn(100); {
		case r < 45:
			op = "Pin"
			k, b := key(), backend()
			if got, want := ft.Pin(k, b), m.pin(k, b); got != want {
				t.Fatalf("step %d: Pin = %v, model %v", step, got, want)
			}
		case r < 65:
			op = "Lookup"
			k := key()
			b, ok := ft.Lookup(k)
			wb, wok := m.conns[k]
			if wok {
				m.hits++
			}
			if b != wb || ok != wok {
				t.Fatalf("step %d: Lookup = %v/%v, model %v/%v", step, b, ok, wb, wok)
			}
		case r < 72:
			op = "Peek"
			k := key()
			b, ok := ft.Peek(k)
			if wb, wok := m.conns[k]; b != wb || ok != wok {
				t.Fatalf("step %d: Peek = %v/%v, model %v/%v", step, b, ok, wb, wok)
			}
		case r < 78:
			op = "Restore"
			entries := make([]ConnEntry, intn(40))
			for i := range entries {
				entries[i] = ConnEntry{Key: key(), Backend: backend()}
				if i > 0 && intn(4) == 0 {
					entries[i].Key = entries[intn(i)].Key
				}
			}
			a, d := ft.Restore(entries)
			if wa, wd := m.restore(entries); a != wa || d != wd {
				t.Fatalf("step %d: Restore = %d/%d, model %d/%d", step, a, d, wa, wd)
			}
		case r < 79:
			op = "EvictBackend"
			b := backend()
			if got, want := ft.EvictBackend(b), m.evict(b); got != want {
				t.Fatalf("step %d: EvictBackend = %d, model %d", step, got, want)
			}
		case r < 84:
			op = "rebound"
			// Near the live count as often as far above it.
			bound := ft.Len()/2 + intn(ft.Len()+8)
			if intn(2) == 0 {
				bound = 1 << 12
			}
			ft.max = bound
			m.max = bound
		default:
			op = "Snapshot"
			type keyed struct {
				order string
				e     ConnEntry
			}
			order := make([]keyed, 0, len(m.conns))
			for k, b := range m.conns {
				order = append(order, keyed{oracleKey(k), ConnEntry{Key: k, Backend: b}})
			}
			slices.SortFunc(order, func(a, b keyed) int { return strings.Compare(a.order, b.order) })
			want := make([]ConnEntry, len(order))
			for i, o := range order {
				want[i] = o.e
			}
			if stream := captureEntries(t, ft); !slices.Equal(stream, want) {
				t.Fatalf("step %d: capture stream has %d entries, model %d, or they differ", step, len(stream), len(want))
			}
			got := ft.Snapshot()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Snapshot has %d entries, model %d, or they differ", step, len(got), len(want))
			}
			captures = append(captures, capture{got, want})
		}
		if ft.Len() != len(m.conns) || ft.max != m.max {
			t.Fatalf("step %d (%s): Len/max = %d/%d, model %d/%d", step, op, ft.Len(), ft.max, len(m.conns), m.max)
		}
		if h, mi, f := ft.Stats(); h != m.hits || mi != m.misses || f != m.tableFull {
			t.Fatalf("step %d (%s): Stats = %d/%d/%d, model %d/%d/%d", step, op, h, mi, f, m.hits, m.misses, m.tableFull)
		}
		occupied := 0
		for _, s := range ft.slots {
			if s.lo == 0 {
				continue
			}
			occupied++
			if e := slotEntry(ft, s); m.conns[e.Key] != e.Backend {
				t.Fatalf("step %d (%s): slot holds %v → %v, model %v", step, op, e.Key, e.Backend, m.conns[e.Key])
			}
		}
		if occupied != len(m.conns) {
			t.Fatalf("step %d (%s): %d occupied slots, model %d entries", step, op, occupied, len(m.conns))
		}
	}
	for i, c := range captures {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("capture %d changed after later operations", i)
		}
	}
}

// TestFlowTableMatchesMapModel runs seeded operation streams against
// the map model: the small key space forces collisions and overwrites,
// the wide one grows tables through several doublings.
func TestFlowTableMatchesMapModel(t *testing.T) {
	never := func() bool { return false }
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkFlowOps(t, rng.Intn, never, 1000, false)
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkFlowOps(t, rng.Intn, never, 2000, true)
	}
}

// TestFlowTableBackendIndexGuard lowers the backend index space to
// three: a fourth backend is indexed once the list is compacted to the
// backends entries still use, and one that needs a fourth live index
// panics instead of wrapping into the key bits.
func TestFlowTableBackendIndexGuard(t *testing.T) {
	defer func(n int) { maxBackends = n }(maxBackends)
	maxBackends = 3
	ft := NewFlowTable(100)
	for i := byte(1); i <= 3; i++ {
		ft.Pin(ftKey(uint16(i)), net.IPv4(10, 0, 0, i))
	}
	ft.Pin(ftKey(1), net.IPv4(10, 0, 0, 2)) // backend 1 is now unused
	if !ft.Pin(ftKey(4), net.IPv4(10, 0, 0, 4)) {
		t.Fatal("pin refused")
	}
	if len(ft.backends) != 3 {
		t.Errorf("backend list holds %d after compaction, want 3", len(ft.backends))
	}
	for i, want := range []byte{2, 2, 3, 4} {
		if b, ok := ft.Peek(ftKey(uint16(i + 1))); !ok || b != net.IPv4(10, 0, 0, want) {
			t.Errorf("flow %d → %v/%v after compaction, want 10.0.0.%d", i+1, b, ok, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a fourth live backend did not panic")
		}
	}()
	ft.Pin(ftKey(5), net.IPv4(10, 0, 0, 5))
}

// BenchmarkFlowTableSnapshot measures the two costs a Capture can pay:
// a full refill from the slots (after a restore, an overwritten pin or
// a rebuild) and the in-place merge of 16 pins made since the last
// Capture, at the fleet's typical and larger table sizes.
func BenchmarkFlowTableSnapshot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	key := func() net.FlowKey {
		return net.FlowKey{
			SrcIP: net.IPv4(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())),
			DstIP: net.IPv4(20, 0, 0, 1), Proto: net.ProtoTCP,
			SrcPort: uint16(rng.Uint32()), DstPort: 80,
		}
	}
	for _, n := range []int{650, 2048} {
		ft := NewFlowTable(1 << 16)
		for ft.Len() < n {
			ft.Pin(key(), net.IPv4(10, 0, 0, 1))
		}
		one := ft.Snapshot()[:1]
		b.Run(fmt.Sprintf("rebuild/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ft.Restore(one) // rewrites an existing entry: forces a refill
				ft.Capture()
			}
		})
		base := slices.Clone(ft.sorted)
		for range 16 {
			ft.Pin(key(), net.IPv4(10, 0, 0, 2))
		}
		fresh := slices.Clone(ft.pinned)
		b.Run(fmt.Sprintf("merge16/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Rewind to the n-entry capture with the same 16 pins
				// pending, so every iteration merges at the same size.
				// The rewind copies n slots, as many as the merge moves.
				ft.sorted = append(ft.sorted[:0], base...)
				ft.pinned = append(ft.pinned[:0], fresh...)
				ft.Capture()
			}
		})
	}
}

// BenchmarkFlowTableLookup probes 300 storm-sized tables (700 entries,
// one VIP each) in a random table order, so most probes meet a table
// no longer in cache, as the fleet's serve path does across replicas:
// hit looks up an established flow; miss+pin looks up a new flow and
// pins it (64 per table, evicted again, untimed, once all are pinned).
func BenchmarkFlowTableLookup(b *testing.B) {
	const tables, entries, fresh = 300, 700, 64
	rng := rand.New(rand.NewSource(1))
	key := func(vip int) net.FlowKey {
		return net.FlowKey{
			SrcIP: net.IPv4(172, byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32())),
			DstIP: net.IPv4(20, 0, byte(vip>>8), byte(vip)), Proto: net.ProtoTCP,
			SrcPort: uint16(rng.Uint32()), DstPort: 80,
		}
	}
	type probe struct {
		ft *FlowTable
		k  net.FlowKey
	}
	fts := make([]*FlowTable, tables)
	established := make([][]net.FlowKey, tables)
	var pins []probe
	for t := range fts {
		fts[t] = NewFlowTable(1 << 16)
		for fts[t].Len() < entries {
			k := key(t)
			if fts[t].Pin(k, net.IPv4(10, 0, 0, byte(1+rng.Intn(8)))) {
				established[t] = append(established[t], k)
			}
		}
		for range fresh {
			pins = append(pins, probe{fts[t], key(t)})
		}
	}
	hits := make([]probe, 1<<16)
	for i := range hits {
		t := rng.Intn(tables)
		hits[i] = probe{fts[t], established[t][rng.Intn(entries)]}
	}
	rng.Shuffle(len(pins), func(i, j int) { pins[i], pins[j] = pins[j], pins[i] })
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := &hits[i&(len(hits)-1)]
			if _, ok := p.ft.Lookup(p.k); !ok {
				b.Fatal("established flow missed")
			}
		}
	})
	newFlow := net.IPv4(10, 0, 1, 1)
	b.Run("miss+pin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(pins)
			if j == 0 && i > 0 {
				b.StopTimer()
				for _, ft := range fts {
					ft.EvictBackend(newFlow)
				}
				b.StartTimer()
			}
			p := &pins[j]
			if _, ok := p.ft.Lookup(p.k); ok {
				b.Fatal("new flow hit")
			}
			p.ft.Pin(p.k, newFlow)
		}
		b.StopTimer()
		for _, ft := range fts {
			ft.EvictBackend(newFlow)
		}
	})
}

// TestDecodeFlowSnapshotHeadroom decodes a capture, then one a single
// entry larger into its storage: the first decode left an eighth of
// headroom, so the second reuses the array and allocates nothing.
func TestDecodeFlowSnapshotHeadroom(t *testing.T) {
	entries := make([]ConnEntry, 651)
	for i := range entries {
		entries[i] = ConnEntry{Key: keyAt(i), Backend: net.IPv4(10, 0, 0, byte(i%8+1))}
	}
	capture, err := DecodeFlowSnapshotInto(nil, EncodeFlowSnapshot(entries[:650]))
	if err != nil {
		t.Fatal(err)
	}
	if want := 650 + 650/8; cap(capture) != want {
		t.Errorf("a 650-entry capture has capacity %d, want %d", cap(capture), want)
	}
	grown := EncodeFlowSnapshot(entries)
	var got []ConnEntry
	if allocs := testing.AllocsPerRun(10, func() { got, err = DecodeFlowSnapshotInto(capture, grown) }); allocs != 0 {
		t.Errorf("decoding one more entry allocates %.1f objects, want 0", allocs)
	}
	if err != nil || !slices.Equal(got, entries) || &got[0] != &capture[0] {
		t.Errorf("grown decode: err %v, %d entries, same array %v", err, len(got), &got[0] == &capture[0])
	}
}
