package cmdif

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal drives the command parser with arbitrary bytes: it must
// never panic, and anything it accepts must re-marshal to the same
// bytes it consumed, AppendMarshal must extend a prefix by exactly
// those bytes, and WireLen must report their length.
func FuzzUnmarshal(f *testing.F) {
	seed, _ := New(1, 0, TableWrite, 1, 2, 3).Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, rest, err := Unmarshal(raw)
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
