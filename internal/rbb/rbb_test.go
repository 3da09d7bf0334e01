package rbb

import (
	"reflect"
	"sync"
	"testing"

	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

func userClk() *sim.Clock { return sim.NewClock("user", 250) }

func TestCounters(t *testing.T) {
	var c Counters
	c.Record(1000, false)
	c.Record(1000, false)
	c.Record(500, true)
	if c.Units != 2 || c.Bytes != 2000 || c.Drops != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestReuseRatesMatchPaperBands(t *testing.T) {
	// Fig. 14: RBB reuse 69-76% cross-vendor, 84-93% cross-chip.
	rbbs := map[Kind]*Desc{}
	n, err := NewNetwork(platform.Xilinx, ip.Speed100G, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	rbbs[NetworkKind] = n.desc
	m, err := NewMemory(platform.Xilinx, ip.DDR4Mem, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	rbbs[MemoryKind] = m.desc
	h, err := NewHost(platform.Xilinx, 4, 16, ip.SGDMA, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	rbbs[HostKind] = h.desc

	for kind, d := range rbbs {
		cv := d.Reuse(CrossVendor)
		if cv.ReuseRate < 0.60 || cv.ReuseRate > 0.80 {
			t.Errorf("%s cross-vendor reuse = %.2f, want ~0.69-0.76", kind, cv.ReuseRate)
		}
		cc := d.Reuse(CrossChip)
		if cc.ReuseRate < 0.80 || cc.ReuseRate > 0.95 {
			t.Errorf("%s cross-chip reuse = %.2f, want ~0.84-0.93", kind, cc.ReuseRate)
		}
		if cc.ReuseRate <= cv.ReuseRate {
			t.Errorf("%s cross-chip reuse should exceed cross-vendor", kind)
		}
		same := d.Reuse(SamePlatform)
		if same.ReuseRate != 1 {
			t.Errorf("%s same-platform reuse = %.2f, want 1", kind, same.ReuseRate)
		}
		if cv.ReusedLoC+cv.RedevLoC != cv.TotalLoC {
			t.Errorf("%s reuse report inconsistent: %+v", kind, cv)
		}
	}
}

func TestDescModuleComposition(t *testing.T) {
	n, err := NewNetwork(platform.Intel, ip.Speed100G, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	d := n.desc
	if d.TotalRes() != d.Instance.Res.Add(d.Reusable.Res) {
		t.Error("TotalRes is not instance + reusable logic")
	}
	if len(d.Params()) != d.Instance.ParamCount()+len(d.Reusable.Params) {
		t.Error("Params is not instance + reusable logic")
	}
	if d.Instance.Deps["cad"] != "quartus" {
		t.Error("instance deps not carried")
	}
}

func TestMigrationScopeString(t *testing.T) {
	if SamePlatform.String() != "same-platform" || CrossChip.String() != "cross-chip" ||
		CrossVendor.String() != "cross-vendor" {
		t.Error("MigrationScope.String mismatch")
	}
	if MigrationScope(9).String() != "scope(9)" {
		t.Error("unknown scope formatting")
	}
}

func TestDescConstructors(t *testing.T) {
	n, err := NewNetworkDesc(platform.Xilinx, ip.Speed25G)
	if err != nil || n.Kind != NetworkKind {
		t.Errorf("NewNetworkDesc: %v", err)
	}
	m, err := NewMemoryDesc(platform.Intel, ip.DDR4Mem)
	if err != nil || m.Kind != MemoryKind {
		t.Errorf("NewMemoryDesc: %v", err)
	}
	h, err := NewHostDesc(platform.Xilinx, 5, 16, ip.BDMA)
	if err != nil || h.Kind != HostKind {
		t.Errorf("NewHostDesc: %v", err)
	}
	// Error propagation from the IP layer.
	if _, err := NewNetworkDesc(platform.Xilinx, ip.Speed(7)); err == nil {
		t.Error("bad speed accepted")
	}
	if _, err := NewMemoryDesc(platform.Intel, ip.HBMMem); err == nil {
		t.Error("intel HBM accepted")
	}
	if _, err := NewHostDesc(platform.Xilinx, 9, 16, ip.BDMA); err == nil {
		t.Error("bad generation accepted")
	}
}

// TestDescConstructorsShareAcrossGoroutines checks that concurrent
// first calls with one argument tuple all get the same Desc, equal to
// a fresh build.
func TestDescConstructorsShareAcrossGoroutines(t *testing.T) {
	const callers = 8
	got := make([]*Desc, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := NewHostDesc(platform.Intel, 5, 8, ip.BDMA)
			if err != nil {
				t.Error(err)
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("caller %d got a different Desc", i)
		}
	}
	fresh, err := buildHostDesc(platform.Intel, 5, 8, ip.BDMA)
	if err != nil || !reflect.DeepEqual(got[0], fresh) {
		t.Errorf("shared Desc differs from a fresh build (%v)", err)
	}
}

func TestSetNativeTogglesLatency(t *testing.T) {
	clk := userClk()
	n, err := NewNetwork(platform.Xilinx, ip.Speed100G, clk, 512)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := n.WrapperLatency()
	n.SetNative(true)
	if native := n.WrapperLatency(); native >= wrapped {
		t.Errorf("native latency %v not below wrapped %v", native, wrapped)
	}
	if n.spec.Speed != ip.Speed100G {
		t.Error("Spec lost")
	}
	m, _ := NewMemory(platform.Xilinx, ip.DDR4Mem, clk, 512)
	mw := m.WrapperLatency()
	m.SetNative(true)
	if m.WrapperLatency() >= mw {
		t.Error("memory SetNative did not reduce latency")
	}
	h, _ := NewHost(platform.Xilinx, 4, 16, ip.SGDMA, clk, 512)
	hw := h.path.FixedLatency()
	h.SetNative(true)
	if h.path.FixedLatency() >= hw {
		t.Error("host SetNative did not reduce latency")
	}
}
