package apps

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// oracleSnapshot is the table's contents sorted by oracleKey.
func oracleSnapshot(ft *FlowTable) []ConnEntry {
	var out []ConnEntry
	for k, b := range ft.conns {
		out = append(out, ConnEntry{Key: k, Backend: b})
	}
	sort.Slice(out, func(i, j int) bool { return oracleKey(out[i].Key) < oracleKey(out[j].Key) })
	return out
}

// randKey draws keys from a small space, so pins collide with existing
// entries and restores carry duplicates; all five fields vary, so the
// order is tested on each of them.
func randKey(rng *rand.Rand) net.FlowKey {
	return net.FlowKey{
		SrcIP: net.IPv4(byte(rng.Intn(3)), 0, byte(rng.Intn(2)), byte(rng.Intn(4))),
		DstIP: net.IPv4(20, byte(rng.Intn(2)), 0, byte(rng.Intn(3)*127)),
		Proto: []uint8{net.ProtoTCP, net.ProtoUDP, 0xff}[rng.Intn(3)],
		// Ports straddle the byte boundary so big-endian order matters.
		SrcPort: uint16(rng.Intn(4)) << (8 * rng.Intn(2)),
		DstPort: uint16(rng.Intn(3)) << (8 * rng.Intn(2)),
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
				ft.SetMax(ft.Len()/2 + rng.Intn(ft.Len()+8))
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

// TestFlowSnapshotEncodeRange serves a stream in command-sized pieces
// and checks the pieces join to the whole encoding, then checks every
// (lo, hi) range of small streams, the empty one included, so each
// split inside, at and across entry boundaries appends exactly
// whole[lo:hi] after what dst held.
func TestFlowSnapshotEncodeRange(t *testing.T) {
	entries := make([]ConnEntry, 120)
	for i := range entries {
		entries[i] = ConnEntry{Key: ftKey(uint16(i)), Backend: net.IPv4(10, 0, 0, byte(i))}
	}
	whole := EncodeFlowSnapshot(entries)
	for _, step := range []int{1, 3, 5, 7, 253} {
		var joined []uint32
		for lo := 0; lo < len(whole); lo += step {
			joined = AppendFlowSnapshot(joined, entries, lo, min(lo+step, len(whole)))
		}
		if !slices.Equal(joined, whole) {
			t.Errorf("step %d: pieces differ from the whole stream", step)
		}
	}
	prefix := []uint32{0xAAAA, 0xBBBB}
	for _, n := range []int{0, 1, 2, 4} {
		small := entries[:n]
		whole := EncodeFlowSnapshot(small)
		for lo := 0; lo <= len(whole); lo++ {
			for hi := lo; hi <= len(whole); hi++ {
				got := AppendFlowSnapshot(slices.Clip(prefix), small, lo, hi)
				if want := append(slices.Clip(prefix), whole[lo:hi]...); !slices.Equal(got, want) {
					t.Fatalf("%d entries [%d, %d): got %x, want %x", n, lo, hi, got, want)
				}
			}
		}
	}
}

// BenchmarkFlowTableSnapshot measures the two costs a Snapshot can pay:
// a full rebuild from the map (after a restore, an eviction or an
// overwritten pin) and the merge of 16 pins made since the last
// Snapshot, at the fleet's typical and larger table sizes.
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
		base := ft.Snapshot()
		one := base[:1]
		b.Run(fmt.Sprintf("rebuild/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ft.Restore(one) // rewrites an existing entry: forces a rebuild
				ft.Snapshot()
			}
		})
		fresh := make([]ConnEntry, 16)
		for i := range fresh {
			fresh[i] = ConnEntry{Key: key(), Backend: net.IPv4(10, 0, 0, 2)}
		}
		b.Run(fmt.Sprintf("merge16/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Rewind to the n-entry capture with the same 16 pins
				// pending, so every iteration merges at the same size.
				ft.sorted, ft.pinned = base, append(ft.pinned[:0], fresh...)
				ft.Snapshot()
			}
		})
	}
}
