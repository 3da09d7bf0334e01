package apps

import (
	"encoding/binary"
	"slices"
	"testing"

	"harmonia/internal/net"
)

// FuzzDecodeFlowSnapshot drives the flow snapshot decoder with arbitrary
// word streams (little-endian bytes, trailing partial word ignored): it
// must never panic, and any stream it accepts must re-encode to the
// same words.
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
		if err != nil {
			return
		}
		if out := EncodeFlowSnapshot(entries); !slices.Equal(out, words) {
			t.Fatalf("re-encode mismatch:\naccepted %x\nre-encoded %x", words, out)
		}
	})
}
