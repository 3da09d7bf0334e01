package cmdif

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := New(2, 1, TableWrite, 0xdeadbeef, 42, 7)
	p.Options = 0x0100 // PCIe
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.WireBytes() {
		t.Errorf("wire size %d, want %d", len(b), p.WireBytes())
	}
	got, rest, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, p)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src, dst, rbbID, inst uint8, code uint16, opts uint32, data []uint32) bool {
		if len(data) > MaxPayloadWords {
			data = data[:MaxPayloadWords]
		}
		p := &Packet{
			Version: Version, SrcID: src, DstID: dst,
			RBBID: rbbID, InstanceID: inst, Code: Code(code),
			Options: opts, Data: data,
		}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		got, rest, err := Unmarshal(b)
		if err != nil || len(rest) != 0 {
			return false
		}
		if len(data) == 0 && len(got.Data) == 0 {
			got.Data, p.Data = nil, nil
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalStream(t *testing.T) {
	// Multiple commands parse sequentially from one buffer using the
	// length fields to find boundaries.
	p1 := New(1, 0, ModuleInit)
	p2 := New(2, 3, StatusRead, 0xff)
	b1, _ := p1.Marshal()
	b2, _ := p2.Marshal()
	stream := append(b1, b2...)

	got1, rest, err := Unmarshal(stream)
	if err != nil {
		t.Fatal(err)
	}
	if got1.Code != ModuleInit {
		t.Errorf("first code = %v", got1.Code)
	}
	got2, rest, err := Unmarshal(rest)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Code != StatusRead || len(got2.Data) != 1 || got2.Data[0] != 0xff {
		t.Errorf("second packet = %+v", got2)
	}
	if len(rest) != 0 {
		t.Error("stream not fully consumed")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := New(1, 0, StatusRead)
	b, _ := p.Marshal()

	if _, _, err := Unmarshal(b[:8]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated error = %v", err)
	}
	// Corrupt a payload byte: checksum must catch it.
	bad := append([]byte(nil), b...)
	bad[6] ^= 0x40
	if _, _, err := Unmarshal(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum error = %v", err)
	}
	// Wrong version.
	v := append([]byte(nil), b...)
	v[0] = 0xE0 | (v[0] & 0x0f)
	if _, _, err := Unmarshal(v); !errors.Is(err, ErrVersion) {
		t.Errorf("version error = %v", err)
	}
}

func TestMarshalValidation(t *testing.T) {
	p := New(1, 0, TableWrite, make([]uint32, 300)...)
	if _, err := p.Marshal(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize payload error = %v", err)
	}
	p2 := New(1, 0, StatusRead)
	p2.Version = 20
	if _, err := p2.Marshal(); err == nil {
		t.Error("5-bit version should fail")
	}
	// WireLen and AppendMarshal reject what Marshal rejects, and a
	// failed append leaves dst as it was.
	if _, err := p.WireLen(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize WireLen error = %v", err)
	}
	if _, err := p2.WireLen(); err == nil {
		t.Error("5-bit version WireLen should fail")
	}
	dst := []byte{0xaa}
	if out, err := p.AppendMarshal(dst); err == nil || len(out) != 1 {
		t.Errorf("oversize AppendMarshal = %x, %v; want dst unchanged and an error", out, err)
	}
}

func TestResponseSwapsEndpoints(t *testing.T) {
	p := New(3, 2, StatsRead)
	p.SrcID = SrcCtrlTool
	p.DstID = DstShell
	r := p.Response([]uint32{1, 2, 3})
	if r.SrcID != DstShell || r.DstID != SrcCtrlTool {
		t.Errorf("response endpoints = src %d dst %d", r.SrcID, r.DstID)
	}
	if r.RBBID != p.RBBID || r.InstanceID != p.InstanceID || r.Code != p.Code {
		t.Error("response lost addressing")
	}
	if len(r.Data) != 3 {
		t.Error("response lost data")
	}
}

func TestCodeString(t *testing.T) {
	names := map[Code]string{
		StatusRead:  "status-read",
		StatusWrite: "status-write",
		ModuleInit:  "module-init",
		ModuleReset: "module-reset",
		TableWrite:  "table-write",
		TableRead:   "table-read",
		StatsRead:   "stats-read",
		FlashErase:  "flash-erase",
		TimeCount:   "time-count",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Code(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if Code(0x9999).String() != "code(0x9999)" {
		t.Errorf("unknown code = %q", Code(0x9999).String())
	}
}

func TestNewDefaults(t *testing.T) {
	p := New(5, 7, ModuleReset)
	if p.Version != Version || p.SrcID != SrcApplication || p.DstID != DstShell {
		t.Errorf("defaults = %+v", p)
	}
	if p.RBBID != 5 || p.InstanceID != 7 {
		t.Error("addressing wrong")
	}
}

// Unmarshal must never panic on arbitrary bytes — it guards the
// hardware-facing parse path.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", raw, r)
			}
		}()
		p, rest, err := Unmarshal(raw)
		if err == nil {
			// Any accepted packet must re-marshal cleanly.
			if _, merr := p.Marshal(); merr != nil {
				return false
			}
			if len(rest) > len(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A declared header length larger than the buffer must not over-read.
func TestUnmarshalHugeDeclaredLengths(t *testing.T) {
	p := New(1, 0, StatusRead)
	b, _ := p.Marshal()
	// Claim a 15-word header and a 255-word payload.
	b[0] = (b[0] & 0xF0) | 0x0F
	b[1] = 0xFF
	if _, _, err := Unmarshal(b); err == nil {
		t.Error("oversized declared lengths accepted")
	}
}
