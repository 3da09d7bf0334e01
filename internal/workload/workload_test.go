package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"harmonia/internal/net"
	"harmonia/internal/sim"
)

func TestPacketsDeterministic(t *testing.T) {
	cfg := PacketConfig{Count: 100, Size: 256, Flows: 8, Seed: 7}
	a, err := Packets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Packets(cfg)
	for i := range a {
		if a[i].Flow() != b[i].Flow() || a[i].WireBytes != b[i].WireBytes || a[i].Seq != b[i].Seq {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
	if len(a) != 100 || a[0].WireBytes != 256 {
		t.Errorf("stream shape wrong")
	}
}

// refPackets is the pointer-per-packet generator the value slab
// replaced, kept as the oracle for the stream's exact contents.
func refPackets(cfg PacketConfig) []*net.Packet {
	if cfg.Flows <= 0 {
		cfg.Flows = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pkts := make([]*net.Packet, cfg.Count)
	for i := range pkts {
		flow := rng.Intn(cfg.Flows)
		dstIP := net.IPv4(10, 1, byte(flow>>8), byte(flow))
		if len(cfg.VIPs) > 0 {
			dstIP = cfg.VIPs[flow%len(cfg.VIPs)]
		}
		pkts[i] = &net.Packet{
			DstMAC:    cfg.DstMAC,
			SrcMAC:    net.HWAddr{0x02, 0xcc, byte(flow >> 16), byte(flow >> 8), byte(flow), 0x01},
			SrcIP:     net.IPv4(172, 16, byte(flow>>8), byte(flow)),
			DstIP:     dstIP,
			Proto:     net.ProtoTCP,
			SrcPort:   uint16(1024 + flow%50000),
			DstPort:   443,
			Seq:       uint32(i),
			WireBytes: cfg.Size,
		}
	}
	return pkts
}

// TestAppendPacketsGolden checks the value-slab generators against the
// reference stream field by field, over several seeds, flow counts and
// a VIP set: Packets, and AppendPackets onto a non-empty recycled slab.
func TestAppendPacketsGolden(t *testing.T) {
	vips := []net.IPAddr{net.IPv4(20, 0, 0, 1), net.IPv4(20, 0, 0, 2), net.IPv4(20, 0, 0, 3)}
	slab := make([]net.Packet, 0, 4096)
	for seed := int64(1); seed <= 6; seed++ {
		cfg := PacketConfig{
			Count: 500 + int(seed)*37, Size: 64 * int(seed), Flows: []int{0, 1, 7, 300, 70000, 1 << 20}[seed-1],
			DstMAC: net.HWAddr{0x02, 0, 0, 0, 0, byte(seed)}, Seed: seed,
		}
		if seed%2 == 0 {
			cfg.VIPs = vips
		}
		want := refPackets(cfg)
		ptrs, err := Packets(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sentinel := net.Packet{Seq: 99}
		slab = append(slab[:0], sentinel)
		if slab, err = AppendPackets(slab, cfg); err != nil {
			t.Fatal(err)
		}
		if len(ptrs) != len(want) || len(slab) != len(want)+1 {
			t.Fatalf("seed %d: lengths %d/%d, want %d", seed, len(ptrs), len(slab)-1, len(want))
		}
		if !reflect.DeepEqual(slab[0], sentinel) {
			t.Fatalf("seed %d: AppendPackets overwrote dst's prefix", seed)
		}
		for i, w := range want {
			if !reflect.DeepEqual(*ptrs[i], *w) || !reflect.DeepEqual(slab[i+1], *w) {
				t.Fatalf("seed %d packet %d: got %+v / %+v, want %+v", seed, i, *ptrs[i], slab[i+1], *w)
			}
		}
	}
}

// TestAppendFlowsMatchesPackets checks the flow-index generator, from
// one Gen reseeded for every stream, against AppendPackets over several
// seeds, flow counts (Flows <= 0 included) and a VIP set: packet i must
// carry cfg.FlowKey(flows[i]) and cfg.Size bytes, dst's prefix must
// survive, and an invalid config must fail both generators alike.
func TestAppendFlowsMatchesPackets(t *testing.T) {
	vips := []net.IPAddr{net.IPv4(20, 0, 0, 1), net.IPv4(20, 0, 0, 2), net.IPv4(20, 0, 0, 3)}
	var gen Gen
	var flows []int32
	for seed := int64(1); seed <= 7; seed++ {
		cfg := PacketConfig{
			Count: 400 + int(seed)*29, Size: 64 * int(seed), Flows: []int{-3, 0, 1, 7, 300, 70000, 1 << 20}[seed-1],
			Seed: seed,
		}
		if seed%2 == 0 {
			cfg.VIPs = vips
		}
		pkts, err := AppendPackets(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if flows, err = gen.AppendFlows(append(flows[:0], -1), cfg); err != nil {
			t.Fatal(err)
		}
		if len(flows) != len(pkts)+1 || flows[0] != -1 {
			t.Fatalf("seed %d: %d flow indices with prefix %d for %d packets", seed, len(flows)-1, flows[0], len(pkts))
		}
		for i := range pkts {
			f := flows[i+1]
			if f < 0 || int(f) >= max(cfg.Flows, 1) {
				t.Fatalf("seed %d packet %d: flow index %d outside [0, %d)", seed, i, f, max(cfg.Flows, 1))
			}
			if k := cfg.FlowKey(int(f)); k != pkts[i].Flow() || pkts[i].WireBytes != cfg.Size {
				t.Fatalf("seed %d packet %d: FlowKey(%d) = %+v, %d bytes; packet %+v, %d bytes",
					seed, i, f, k, cfg.Size, pkts[i].Flow(), pkts[i].WireBytes)
			}
		}
	}
	for _, cfg := range []PacketConfig{
		{Count: 0, Size: 128, Flows: 4},
		{Count: -1, Size: 128, Flows: 4},
		{Count: 10, Size: net.MinFrame - 1, Flows: 4},
		{Count: 1, Size: 128, Flows: math.MaxInt32 + 1},
	} {
		_, perr := AppendPackets(nil, cfg)
		got, ferr := gen.AppendFlows([]int32{5}, cfg)
		if perr == nil || ferr == nil || perr.Error() != ferr.Error() {
			t.Errorf("%+v: AppendPackets err %v, AppendFlows err %v; want the same error", cfg, perr, ferr)
		}
		if len(got) != 1 || got[0] != 5 {
			t.Errorf("%+v: a failed AppendFlows returned %v, want dst untouched", cfg, got)
		}
	}
}

// TestAppendArrivalsMatchesArrivals checks the appending form, from one
// Gen reseeded for every stream, against Arrivals and that it keeps
// dst's prefix.
func TestAppendArrivalsMatchesArrivals(t *testing.T) {
	var gen Gen
	for seed := int64(1); seed <= 3; seed++ {
		want, err := Arrivals(300, 7*sim.Nanosecond, 0.3*float64(seed-1), seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gen.AppendArrivals([]sim.Time{-1}, 300, 7*sim.Nanosecond, 0.3*float64(seed-1), seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want)+1 || got[0] != -1 {
			t.Fatalf("seed %d: AppendArrivals = %d offsets with prefix %v", seed, len(got), got[0])
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("seed %d offset %d: %v, want %v", seed, i, got[i+1], want[i])
			}
		}
	}
}

// TestGenReuseAllocatesNothing checks that a kept Gen generating into
// recycled storage allocates nothing.
func TestGenReuseAllocatesNothing(t *testing.T) {
	var gen Gen
	cfg := PacketConfig{Count: 256, Size: 128, Flows: 32, Seed: 5}
	flows, err := gen.AppendFlows(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := gen.AppendArrivals(nil, 256, 7*sim.Nanosecond, 0.3, 6)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		flows, _ = gen.AppendFlows(flows[:0], cfg)
		arr, _ = gen.AppendArrivals(arr[:0], 256, 7*sim.Nanosecond, 0.3, 6)
	})
	if allocs != 0 {
		t.Errorf("a kept Gen generating into recycled storage allocates %.1f objects, want 0", allocs)
	}
}

func TestPacketsFlowSpread(t *testing.T) {
	pkts, _ := Packets(PacketConfig{Count: 1000, Size: 128, Flows: 16, Seed: 1})
	flows := map[net.FlowKey]bool{}
	for _, p := range pkts {
		flows[p.Flow()] = true
	}
	if len(flows) < 12 || len(flows) > 16 {
		t.Errorf("distinct flows = %d, want about 16", len(flows))
	}
}

func TestPacketsVIPs(t *testing.T) {
	vips := []net.IPAddr{net.IPv4(20, 0, 0, 1), net.IPv4(20, 0, 0, 2)}
	pkts, _ := Packets(PacketConfig{Count: 50, Size: 128, Flows: 10, VIPs: vips, Seed: 2})
	for _, p := range pkts {
		if p.DstIP != vips[0] && p.DstIP != vips[1] {
			t.Fatalf("packet to unexpected IP %v", p.DstIP)
		}
	}
}

func TestPacketsValidation(t *testing.T) {
	if _, err := Packets(PacketConfig{Count: 0, Size: 128}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Packets(PacketConfig{Count: 1, Size: 32}); err == nil {
		t.Error("sub-minimum frame accepted")
	}
}

func TestAccessGenModes(t *testing.T) {
	seq, err := NewAccessGen(Sequential, 64, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := seq.Next(), seq.Next(); a != 0 || b != 64 {
		t.Errorf("sequential = %d, %d", a, b)
	}
	// Wraps at limit.
	for i := 0; i < 20; i++ {
		if a := seq.Next(); a >= 1024 {
			t.Fatalf("address %d beyond limit", a)
		}
	}
	fixed, _ := NewAccessGen(Fixed, 64, 1024, 1)
	if fixed.Next() != 0 || fixed.Next() != 0 {
		t.Error("fixed mode should repeat address 0")
	}
	rnd, _ := NewAccessGen(Random, 64, 1<<20, 3)
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		a := rnd.Next()
		if a%64 != 0 || a < 0 || a >= 1<<20 {
			t.Fatalf("random address %d invalid", a)
		}
		seen[a] = true
	}
	if len(seen) < 50 {
		t.Error("random addresses not spread")
	}
	if _, err := NewAccessGen("weird", 64, 1024, 1); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewAccessGen(Sequential, 0, 1024, 1); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestMatrixMulCorrectness(t *testing.T) {
	// 2x2 hand check.
	a := &Matrix{N: 2, Data: []float32{1, 2, 3, 4}}
	b := &Matrix{N: 2, Data: []float32{5, 6, 7, 8}}
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
	if _, err := a.Mul(&Matrix{N: 3, Data: make([]float32, 9)}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestMatrixIdentity(t *testing.T) {
	n := 16
	a := NewMatrix(n, 5)
	id := &Matrix{N: n, Data: make([]float32, n*n)}
	for i := 0; i < n; i++ {
		id.Data[i*n+i] = 1
	}
	c, _ := a.Mul(id)
	for i := range c.Data {
		if math.Abs(float64(c.Data[i]-a.Data[i])) > 1e-6 {
			t.Fatalf("A*I != A at %d", i)
		}
	}
	if a.At(3, 4) != a.Data[3*n+4] {
		t.Error("At indexing wrong")
	}
}

func TestMatMulWork(t *testing.T) {
	w := DefaultMatMul()
	if w.N != 64 || w.Iterations != 1024 {
		t.Errorf("default = %+v", w)
	}
}

func TestVectors(t *testing.T) {
	// One 32-bit element per vector slot.
	if got := VectorBytes(8); got != 32 {
		t.Errorf("VectorBytes(8) = %d, want 32", got)
	}
}

func TestEmbeddingsAndDot(t *testing.T) {
	es := Embeddings(5, 16, 9)
	if len(es) != 5 || len(es[0].Vec) != 16 {
		t.Fatal("embedding shape wrong")
	}
	if Dot([]float32{1, 2, 3}, []float32{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	// Self-similarity is positive.
	if Dot(es[0].Vec, es[0].Vec) <= 0 {
		t.Error("self dot should be positive")
	}
}

func TestArrivalsSeededReproducible(t *testing.T) {
	a, err := Arrivals(5_000, 200*sim.Nanosecond, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Strictly increasing offsets.
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("arrival %d (%v) not after %d (%v)", i, a[i], i-1, a[i-1])
		}
	}
	// Jitter preserves the mean rate within a few percent.
	mean := float64(a[len(a)-1]) / float64(len(a))
	want := float64(200 * sim.Nanosecond)
	if mean < 0.95*want || mean > 1.05*want {
		t.Errorf("mean gap %.1f, want ~%.0f", mean, want)
	}
	// The explicit seed makes the process reproducible...
	b, _ := Arrivals(5_000, 200*sim.Nanosecond, 0.3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
	// ...and a different seed perturbs it.
	c, _ := Arrivals(5_000, 200*sim.Nanosecond, 0.3, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals")
	}
	// Zero jitter degenerates to a fixed gap.
	d, err := Arrivals(10, 100*sim.Nanosecond, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range d {
		if at != sim.Time(i+1)*100*sim.Nanosecond {
			t.Fatalf("zero-jitter arrival %d = %v", i, at)
		}
	}
	if _, err := Arrivals(0, 100, 0.1, 1); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Arrivals(10, 0, 0.1, 1); err == nil {
		t.Error("zero gap accepted")
	}
	if _, err := Arrivals(10, 100, 1.0, 1); err == nil {
		t.Error("jitter 1.0 accepted")
	}
}
