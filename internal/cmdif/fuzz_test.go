package cmdif

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzUnmarshal drives the command parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-marshal to the same
// bytes it consumed, AppendMarshal must extend a prefix by exactly
// those bytes, and WireLen must report their length. Parsing into a
// reused packet must agree with Unmarshal, and a rejected parse must
// leave that packet as it was.
func FuzzUnmarshal(f *testing.F) {
	seed, _ := New(1, 0, TableWrite, 1, 2, 3).Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, rest, err := Unmarshal(raw)
		for _, words := range []int{0, 2, 255} {
			reused := New(7, 1, StatsRead, make([]uint32, words)...)
			reused.Options = 0xC0FFEE
			kept := *reused
			kept.Data = slices.Clone(reused.Data)
			prest, perr := reused.Parse(raw)
			if (perr == nil) != (err == nil) {
				t.Fatalf("Parse into %d-word packet: err %v, Unmarshal err %v", words, perr, err)
			}
			if perr != nil {
				if !samePacket(reused, &kept) || len(prest) != len(raw) {
					t.Fatalf("rejected Parse changed the %d-word packet", words)
				}
				continue
			}
			if !samePacket(reused, p) || len(prest) != len(rest) {
				t.Fatalf("Parse into %d-word packet = %+v, Unmarshal %+v", words, reused, p)
			}
		}
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v", err)
		}
		consumed := raw[:len(raw)-len(rest)]
		if !bytes.Equal(out, consumed) {
			t.Fatalf("re-marshal mismatch:\nconsumed %x\nremarshal %x", consumed, out)
		}
		prefix := raw[len(raw)-len(rest):]
		appended, err := p.AppendMarshal(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendMarshal failed where Marshal succeeded: %v", err)
		}
		if !bytes.Equal(appended, append(append([]byte(nil), prefix...), out...)) {
			t.Fatalf("AppendMarshal(%x) = %x, want prefix + %x", prefix, appended, out)
		}
		if n, err := p.WireLen(); err != nil || n != len(out) {
			t.Fatalf("WireLen = %d, %v; Marshal produced %d bytes", n, err, len(out))
		}
	})
}

// samePacket compares every field, payloads by content.
func samePacket(a, b *Packet) bool {
	return a.Version == b.Version && a.SrcID == b.SrcID && a.DstID == b.DstID &&
		a.RBBID == b.RBBID && a.InstanceID == b.InstanceID && a.Code == b.Code &&
		a.Options == b.Options && slices.Equal(a.Data, b.Data)
}
