package hdl

import (
	"testing"
	"testing/quick"

	"harmonia/internal/proto"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{LUT: 100, REG: 200, BRAM: 10, URAM: 4, DSP: 8}
	b := Resources{LUT: 50, REG: 100, BRAM: 5, URAM: 2, DSP: 4}
	sum := a.Add(b)
	if sum != (Resources{150, 300, 15, 6, 12}) {
		t.Errorf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
	if half := b.Scale(0.5); half != (Resources{25, 50, 2, 1, 2}) {
		t.Errorf("Scale(0.5) = %+v", half)
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero misreports")
	}
}

func TestResourcesAddCommutative(t *testing.T) {
	f := func(a, b Resources) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourcesGet(t *testing.T) {
	r := Resources{LUT: 1, REG: 2, BRAM: 3, URAM: 4, DSP: 5}
	want := map[string]int{"LUT": 1, "REG": 2, "BRAM": 3, "URAM": 4, "DSP": 5}
	for _, k := range ResourceKinds {
		got, err := r.Get(k)
		if err != nil || got != want[k] {
			t.Errorf("Get(%q) = %d, %v, want %d", k, got, err, want[k])
		}
	}
	if _, err := r.Get("FF"); err == nil {
		t.Error("Get(unknown) should error")
	}
}

func TestUtilization(t *testing.T) {
	capacity := Resources{LUT: 1000, REG: 2000, BRAM: 100, URAM: 50, DSP: 200}
	used := Resources{LUT: 100, REG: 100, BRAM: 50, URAM: 5, DSP: 10}
	// BRAM is binding at 50%.
	if got := used.Utilization(capacity); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	// Using a resource the device lacks saturates to 1.
	if got := (Resources{URAM: 1}).Utilization(Resources{LUT: 10}); got != 1 {
		t.Errorf("Utilization with missing resource = %v, want 1", got)
	}
	if got := (Resources{}).Utilization(capacity); got != 0 {
		t.Errorf("zero utilization = %v", got)
	}
}

func TestLoC(t *testing.T) {
	l := LoC{Handcraft: 3000, Generated: 1500}
	if l.Total() != 4500 {
		t.Errorf("Total = %d", l.Total())
	}
	sum := l.Add(LoC{Handcraft: 1000, Generated: 500})
	if sum != (LoC{4000, 2000}) {
		t.Errorf("Add = %+v", sum)
	}
}

func makeModule(name, vendor string, width int, params ...Param) *Module {
	return &Module{
		Name:     name,
		Vendor:   vendor,
		Category: "mac",
		Ports: []proto.Interface{
			proto.NewAXI4Stream("rx", width),
			proto.NewAXI4Stream("tx", width),
			proto.NewAXI4Lite("ctrl", 32, 32),
		},
		Params: params,
		Res:    Resources{LUT: 10000, REG: 20000, BRAM: 30},
		Code:   LoC{Handcraft: 2000, Generated: 4000},
		Deps:   map[string]string{"cad": "vivado-2023.2"},
	}
}

func TestModuleCounts(t *testing.T) {
	m := makeModule("mac", "xilinx", 512,
		Param{Name: "SPEED", Default: "100G", Scope: RoleOriented},
		Param{Name: "FEC", Default: "rs", Scope: ShellOriented},
	)
	if m.PortCount() != 3 {
		t.Errorf("PortCount = %d", m.PortCount())
	}
	if m.SignalCount() != 9+9+19 {
		t.Errorf("SignalCount = %d, want 37", m.SignalCount())
	}
	if m.ParamCount() != 2 {
		t.Errorf("ParamCount = %d", m.ParamCount())
	}
	rp := m.RoleParams()
	if len(rp) != 1 || rp[0].Name != "SPEED" {
		t.Errorf("RoleParams = %+v", rp)
	}
}

func TestModuleClone(t *testing.T) {
	m := makeModule("mac", "xilinx", 512, Param{Name: "P", Default: "1"})
	c := m.Clone()
	c.Ports[0].Signals[0].Width = 999
	c.Params[0].Default = "2"
	c.Deps["cad"] = "other"
	if m.Ports[0].Signals[0].Width == 999 {
		t.Error("Clone shares port signals")
	}
	if m.Params[0].Default == "2" {
		t.Error("Clone shares params")
	}
	if m.Deps["cad"] == "other" {
		t.Error("Clone shares deps")
	}
}

func TestInterfaceDiff(t *testing.T) {
	a := makeModule("mac-x", "xilinx", 512)
	b := makeModule("mac-x2", "xilinx", 512)
	if d := InterfaceDiff(a, b); d != 0 {
		t.Errorf("identical modules diff = %d", d)
	}
	// Cross-vendor: replace streams with Avalon — every stream signal
	// differs, and the control port differs too.
	c := b.Clone()
	c.Ports[0] = proto.NewAvalonST("rx", 512)
	c.Ports[1] = proto.NewAvalonST("tx", 512)
	d := InterfaceDiff(a, c)
	if d < 30 {
		t.Errorf("cross-vendor diff = %d, want tens of signals", d)
	}
	// A port present in only one module counts fully.
	e := a.Clone()
	e.Ports = append(e.Ports, proto.Interface{Name: "irq", Family: proto.Unified, Kind: proto.KindIRQ,
		Signals: []proto.Signal{{Name: "irq", Width: 1, Dir: proto.Out}}})
	if d := InterfaceDiff(a, e); d != 1 {
		t.Errorf("extra-port diff = %d, want 1", d)
	}
}

func TestConfigDiff(t *testing.T) {
	a := makeModule("m1", "x", 512,
		Param{Name: "A", Default: "1"}, Param{Name: "B", Default: "2"})
	b := makeModule("m2", "x", 512,
		Param{Name: "A", Default: "1"}, Param{Name: "B", Default: "3"}, Param{Name: "C", Default: "4"})
	// B differs by default, C only in b.
	if d := ConfigDiff(a, b); d != 2 {
		t.Errorf("ConfigDiff = %d, want 2", d)
	}
	if d := ConfigDiff(a, a); d != 0 {
		t.Errorf("self diff = %d", d)
	}
	if d := ConfigDiff(a, b); d != ConfigDiff(b, a) {
		t.Error("ConfigDiff not symmetric")
	}
}

func TestLibrary(t *testing.T) {
	l := NewLibrary()
	m1 := makeModule("mac-a", "xilinx", 512)
	m2 := makeModule("mac-b", "intel", 512)
	m3 := makeModule("dma-a", "xilinx", 256)
	m3.Category = "pcie-dma"
	for _, m := range []*Module{m1, m2, m3} {
		if err := l.Register(m); err != nil {
			t.Fatalf("Register(%s): %v", m.Name, err)
		}
	}
	if err := l.Register(m1); err == nil {
		t.Error("duplicate Register should fail")
	}
	if err := l.Register(&Module{}); err == nil {
		t.Error("unnamed Register should fail")
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
	if _, err := l.Lookup("mac-a"); err != nil {
		t.Errorf("Lookup failed: %v", err)
	}
	if _, err := l.Lookup("nope"); err == nil {
		t.Error("Lookup(nope) should fail")
	}
	names := l.Names()
	if len(names) != 3 || names[0] != "dma-a" {
		t.Errorf("Names = %v", names)
	}
	macs, xs := 0, 0
	for _, n := range names {
		m, _ := l.Lookup(n)
		if m.Category == "mac" {
			macs++
		}
		if m.Vendor == "xilinx" {
			xs++
		}
	}
	if macs != 2 {
		t.Errorf("%d mac modules, want 2", macs)
	}
	if xs != 2 {
		t.Errorf("%d xilinx modules, want 2", xs)
	}
}

func TestParamScopeString(t *testing.T) {
	if ShellOriented.String() != "shell-oriented" || RoleOriented.String() != "role-oriented" {
		t.Error("ParamScope.String mismatch")
	}
	if ParamScope(7).String() != "scope(7)" {
		t.Error("unknown scope formatting mismatch")
	}
}
