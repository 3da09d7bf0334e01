package apps

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"harmonia/internal/net"
)

// FuzzDecodeFlowSnapshot drives the flow snapshot decoder with arbitrary
// word streams (little-endian bytes, trailing partial word ignored): it
// must never panic, and any stream it accepts must re-encode to the
// same words. Decoding into a reused destination — a previous capture,
// larger or smaller than the stream — must equal a fresh decode, and a
// rejected stream must leave that capture unchanged.
func FuzzDecodeFlowSnapshot(f *testing.F) {
	toBytes := func(words []uint32) []byte {
		var out []byte
		for _, w := range words {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
		return out
	}
	f.Add(toBytes(EncodeFlowSnapshot(nil)))
	f.Add(toBytes(EncodeFlowSnapshot([]ConnEntry{
		{Key: ftKey(1), Backend: net.IPv4(10, 0, 0, 1)},
		{Key: ftKey(2), Backend: net.IPv4(10, 0, 0, 2)},
	})))
	f.Add([]byte{})
	f.Add(toBytes([]uint32{flowSnapMagic<<16 | FlowSnapshotVersion, 0xFFFFFFFF}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := make([]uint32, len(raw)/4)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		entries, err := DecodeFlowSnapshot(words)
		for _, n := range []int{0, 3, 64} {
			prev := make([]ConnEntry, n)
			for i := range prev {
				prev[i] = ConnEntry{Key: ftKey(uint16(i)), Backend: net.IPv4(10, 9, 9, byte(i))}
			}
			kept := slices.Clone(prev)
			got, rerr := DecodeFlowSnapshotInto(prev, words)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("into %d-entry capture: err %v, fresh decode err %v", n, rerr, err)
			}
			if rerr != nil {
				if !slices.Equal(got, kept) || !slices.Equal(prev, kept) {
					t.Fatalf("rejected stream changed the %d-entry capture", n)
				}
				continue
			}
			if !slices.Equal(got, entries) {
				t.Fatalf("decode into %d-entry capture = %v, fresh decode %v", n, got, entries)
			}
		}
		if err != nil {
			return
		}
		if out := EncodeFlowSnapshot(entries); !slices.Equal(out, words) {
			t.Fatalf("re-encode mismatch:\naccepted %x\nre-encoded %x", words, out)
		}
	})
}

// FuzzFlowTableOps decodes bytes into the operation stream
// checkFlowOps draws and checks the table against the map model. The
// first byte's low bit picks the wide key space; each later draw reads
// as many bytes as its bound needs, big-endian, modulo the bound, and
// the stream ends when the input is spent.
func FuzzFlowTableOps(f *testing.F) {
	f.Add([]byte{})
	for seed, size := range []int{64, 600, 3000} {
		raw := make([]byte, size)
		rand.New(rand.NewSource(int64(seed))).Read(raw)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		wide, src := raw[0]&1 == 1, raw[1:]
		intn := func(n int) int {
			v := 0
			for span := 1; span < n && len(src) > 0; span <<= 8 {
				v, src = v<<8|int(src[0]), src[1:]
			}
			return v % n
		}
		checkFlowOps(t, intn, func() bool { return len(src) == 0 }, 2000, wide)
	})
}
