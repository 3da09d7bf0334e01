package proto

import (
	"testing"
	"testing/quick"
)

func TestAXI4SignalInventory(t *testing.T) {
	i := NewAXI4("m_axi", 512, 64)
	if i.SignalCount() != 37 {
		t.Errorf("AXI4 signal count = %d, want 37", i.SignalCount())
	}
	if i.Kind != KindMemMap {
		t.Errorf("AXI4 kind = %q, want memmap", i.Kind)
	}
	if i.DataWidth != 512 || i.AddrWidth != 64 {
		t.Errorf("widths = %d/%d, want 512/64", i.DataWidth, i.AddrWidth)
	}
}

func TestStreamInterfacesSmallerThanMM(t *testing.T) {
	axis := NewAXI4Stream("s", 512)
	axi := NewAXI4("m", 512, 64)
	if axis.SignalCount() >= axi.SignalCount() {
		t.Errorf("AXI4-Stream (%d signals) should be smaller than AXI4 (%d)",
			axis.SignalCount(), axi.SignalCount())
	}
}

func TestUnifiedSimplerThanVendor(t *testing.T) {
	// The unified format must expose strictly fewer signals than either
	// vendor protocol for the same role — that is its entire point.
	cases := []struct {
		unified, vendorA, vendorB Interface
	}{
		{NewUnifiedStream("u", 512), NewAXI4Stream("x", 512), NewAvalonST("i", 512)},
		{NewUnifiedMemMap("u", 512, 34), NewAXI4("x", 512, 34), NewAvalonMM("i", 512, 34)},
		{NewUnifiedReg("u", 32), NewAXI4Lite("x", 32, 32), NewAvalonMM("i", 32, 32)},
	}
	for _, c := range cases {
		if c.unified.SignalCount() >= c.vendorA.SignalCount() {
			t.Errorf("unified %s (%d signals) not simpler than %s (%d)",
				c.unified.Kind, c.unified.SignalCount(), c.vendorA.Family, c.vendorA.SignalCount())
		}
		if c.unified.SignalCount() >= c.vendorB.SignalCount() {
			t.Errorf("unified %s (%d signals) not simpler than %s (%d)",
				c.unified.Kind, c.unified.SignalCount(), c.vendorB.Family, c.vendorB.SignalCount())
		}
	}
}

func TestDiffIdenticalIsZero(t *testing.T) {
	a := NewAXI4Stream("s", 512)
	b := NewAXI4Stream("s", 512)
	if d := Diff(a, b); d != 0 {
		t.Errorf("Diff(identical) = %d, want 0", d)
	}
}

func TestDiffCrossVendorStreamsIsLarge(t *testing.T) {
	// An AXI4-Stream and an Avalon-ST port share no signal names, so the
	// diff is the union of both inventories. This is the Fig. 3b effect:
	// cross-vendor IPs cannot be dropped in for one another.
	x := NewAXI4Stream("s", 512)
	i := NewAvalonST("s", 512)
	want := x.SignalCount() + i.SignalCount()
	if d := Diff(x, i); d != want {
		t.Errorf("cross-vendor stream diff = %d, want %d", d, want)
	}
}

func TestDiffWidthChangeCounts(t *testing.T) {
	a := NewAXI4Stream("s", 256)
	b := NewAXI4Stream("s", 512)
	// tdata, tkeep and tstrb widths change; everything else matches.
	if d := Diff(a, b); d != 3 {
		t.Errorf("width-change diff = %d, want 3", d)
	}
}

func TestDiffSymmetry(t *testing.T) {
	f := func(w1, w2 uint8) bool {
		a := NewAXI4("a", int(w1%8+1)*64, 48)
		b := NewAvalonMM("b", int(w2%8+1)*64, 34)
		return Diff(a, b) == Diff(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalWiresAndSideband(t *testing.T) {
	s := NewUnifiedStream("u", 512)
	wantWires := 1 + 1 + 512 + 1 + 1 + 64
	if got := s.TotalWires(); got != wantWires {
		t.Errorf("TotalWires() = %d, want %d", got, wantWires)
	}
	if got := s.SidebandCount(); got != 1 {
		t.Errorf("SidebandCount() = %d, want 1", got)
	}
}

func TestForFamily(t *testing.T) {
	for _, f := range []Family{AXI4, AXI4Lite, AXI4Stream, AvalonMM, AvalonST} {
		i, err := ForFamily(f, "p", 512, 34)
		if err != nil {
			t.Errorf("ForFamily(%q) error: %v", f, err)
			continue
		}
		if i.Family != f {
			t.Errorf("ForFamily(%q).Family = %q", f, i.Family)
		}
	}
	if _, err := ForFamily(Unified, "p", 512, 34); err == nil {
		t.Error("ForFamily(Unified) should error")
	}
	if _, err := ForFamily("bogus", "p", 512, 34); err == nil {
		t.Error("ForFamily(bogus) should error")
	}
}

func TestDirectionString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Error("Direction.String() mismatch")
	}
	if Direction(9).String() != "direction(9)" {
		t.Error("unknown direction formatting mismatch")
	}
}
