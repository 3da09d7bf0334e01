// Package workload provides deterministic workload generators for the
// benchmark harness: packet streams with controllable flow counts,
// memory access patterns (sequential/fixed/random × read/write),
// matrix-multiplication kernels and vector-database traces — the
// workloads §5.1 benchmarks with.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"harmonia/internal/net"
	"harmonia/internal/sim"
)

// Gen generates the seeded flow-index and arrival streams into caller
// storage. It keeps one random source and reseeds it for every stream,
// which yields the same stream a fresh rand.NewSource(seed) would, so a
// caller that keeps a Gen and recycles its storage generates without
// allocating. The zero value is ready to use; a Gen is not safe for
// concurrent use.
type Gen struct{ rng *rand.Rand }

// seeded returns g's source reseeded with seed.
func (g *Gen) seeded(seed int64) *rand.Rand {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(seed))
	} else {
		g.rng.Seed(seed)
	}
	return g.rng
}

// PacketSizes is the paper's packet-size sweep (Figs. 10a, 17a-c).
var PacketSizes = []int{64, 128, 256, 512, 1024}

// TCPSizes is the TCP benchmark's sweep (Fig. 18d).
var TCPSizes = []int{64, 512, 1500}

// ReadSizes is the PCIe read-size sweep (Fig. 10b).
var ReadSizes = []int{1024, 2048, 4096, 8192, 16384}

// PacketConfig shapes a generated packet stream.
type PacketConfig struct {
	// Count of packets.
	Count int
	// Size is the on-wire frame size in bytes.
	Size int
	// Flows spreads traffic over this many 5-tuples (at most MaxInt32).
	Flows int
	// DstMAC is the destination address (the device under test).
	DstMAC net.HWAddr
	// VIPs optionally spreads destination IPs over a VIP set.
	VIPs []net.IPAddr
	// Seed makes the stream reproducible.
	Seed int64
}

// Packets generates a deterministic stream. The packets live in one
// value slab (AppendPackets); the returned pointers index into it.
func Packets(cfg PacketConfig) ([]*net.Packet, error) {
	slab, err := AppendPackets(nil, cfg)
	if err != nil {
		return nil, err
	}
	pkts := make([]*net.Packet, len(slab))
	for i := range slab {
		pkts[i] = &slab[i]
	}
	return pkts, nil
}

// AppendPackets appends the stream Packets generates to dst as values
// and returns the extended slice. A caller that recycles dst between
// streams allocates no packet storage.
func AppendPackets(dst []net.Packet, cfg PacketConfig) ([]net.Packet, error) {
	flows, err := cfg.flowCount()
	if err != nil {
		return dst, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := len(dst)
	dst = slices.Grow(dst, cfg.Count)[:base+cfg.Count]
	for i := range dst[base:] {
		flow := rng.Intn(flows)
		k := cfg.FlowKey(flow)
		dst[base+i] = net.Packet{
			DstMAC:    cfg.DstMAC,
			SrcMAC:    net.HWAddr{0x02, 0xcc, byte(flow >> 16), byte(flow >> 8), byte(flow), 0x01},
			SrcIP:     k.SrcIP,
			DstIP:     k.DstIP,
			Proto:     k.Proto,
			SrcPort:   k.SrcPort,
			DstPort:   k.DstPort,
			Seq:       uint32(i),
			WireBytes: cfg.Size,
		}
	}
	return dst, nil
}

// AppendFlows appends the flow index, in [0, cfg.Flows), of each packet
// AppendPackets generates for cfg, from the same draws: packet i's key
// is cfg.FlowKey(index i) and its size cfg.Size.
func (g *Gen) AppendFlows(dst []int32, cfg PacketConfig) ([]int32, error) {
	flows, err := cfg.flowCount()
	if err != nil {
		return dst, err
	}
	rng := g.seeded(cfg.Seed)
	dst = slices.Grow(dst, cfg.Count)
	for range cfg.Count {
		dst = append(dst, int32(rng.Intn(flows)))
	}
	return dst, nil
}

// flowCount validates cfg and returns its flow count, at least 1.
func (cfg PacketConfig) flowCount() (int, error) {
	if cfg.Count <= 0 || cfg.Size < net.MinFrame || cfg.Flows > math.MaxInt32 {
		return 0, fmt.Errorf("workload: invalid packet config %+v", cfg)
	}
	return max(cfg.Flows, 1), nil
}

// FlowKey returns the 5-tuple the stream gives flow index flow: a pure
// function of the index and cfg.VIPs.
func (cfg PacketConfig) FlowKey(flow int) net.FlowKey {
	dstIP := net.IPv4(10, 1, byte(flow>>8), byte(flow))
	if len(cfg.VIPs) > 0 {
		dstIP = cfg.VIPs[flow%len(cfg.VIPs)]
	}
	return net.FlowKey{
		SrcIP:   net.IPv4(172, 16, byte(flow>>8), byte(flow)),
		DstIP:   dstIP,
		Proto:   net.ProtoTCP,
		SrcPort: uint16(1024 + flow%50000),
		DstPort: 443,
	}
}

// AccessMode selects the memory access pattern (Figs. 10c, 18c).
type AccessMode string

// Access patterns.
const (
	Sequential AccessMode = "sequential"
	Fixed      AccessMode = "fixed"
	Random     AccessMode = "random"
)

// AccessGen yields a deterministic address trace.
type AccessGen struct {
	mode   AccessMode
	stride int64
	limit  int64
	rng    *rand.Rand
	next   int64
}

// NewAccessGen returns a generator of addresses in [0, limit) with the
// given element stride.
func NewAccessGen(mode AccessMode, stride, limit int64, seed int64) (*AccessGen, error) {
	if stride <= 0 || limit <= stride {
		return nil, fmt.Errorf("workload: invalid access range stride=%d limit=%d", stride, limit)
	}
	switch mode {
	case Sequential, Fixed, Random:
	default:
		return nil, fmt.Errorf("workload: unknown access mode %q", mode)
	}
	return &AccessGen{
		mode:   mode,
		stride: stride,
		limit:  limit - limit%stride,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// Next returns the next address.
func (g *AccessGen) Next() int64 {
	switch g.mode {
	case Fixed:
		return 0
	case Random:
		return g.rng.Int63n(g.limit/g.stride) * g.stride
	default: // Sequential
		addr := g.next
		g.next += g.stride
		if g.next >= g.limit {
			g.next = 0
		}
		return addr
	}
}

// Matrix is a dense square float32 matrix in row-major order.
type Matrix struct {
	N    int
	Data []float32
}

// NewMatrix returns a deterministic pseudo-random N×N matrix.
func NewMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := &Matrix{N: n, Data: make([]float32, n*n)}
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.N+j] }

// Mul computes m × o (the reference result the FPGA kernels check
// against).
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.N != o.N {
		return nil, fmt.Errorf("workload: size mismatch %d vs %d", m.N, o.N)
	}
	n := m.N
	out := &Matrix{N: n, Data: make([]float32, n*n)}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a := m.Data[i*n+k]
			if a == 0 {
				continue
			}
			row := o.Data[k*n:]
			dst := out.Data[i*n:]
			for j := 0; j < n; j++ {
				dst[j] += a * row[j]
			}
		}
	}
	return out, nil
}

// MatMulWork is the Fig. 18b workload: 64×64 single-precision matrices
// across 1024 iterations.
type MatMulWork struct {
	N          int
	Iterations int
}

// DefaultMatMul returns the paper's configuration.
func DefaultMatMul() MatMulWork { return MatMulWork{N: 64, Iterations: 1024} }

// VectorBytes is the record size used by the database benchmark: one
// 32-bit element per vector slot times the configured width.
func VectorBytes(width int) int { return 4 * width }

// Embedding is a float32 embedding row for the retrieval benchmark.
type Embedding struct {
	ID  uint32
	Vec []float32
}

// Embeddings generates a deterministic corpus of dim-dimensional rows.
func Embeddings(count, dim int, seed int64) []Embedding {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Embedding, count)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		out[i] = Embedding{ID: uint32(i), Vec: v}
	}
	return out
}

// Dot computes the similarity score between two embeddings.
func Dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Arrivals returns n cumulative packet arrival offsets with the given
// mean inter-arrival gap. Jitter in [0, 1) spreads each gap uniformly
// over [1-jitter, 1+jitter] of the mean, modelling the burstiness of
// offered load without changing its average rate. The explicit seed
// makes fleet scenarios and failover drills reproducible: the same
// seed yields the identical arrival process.
func Arrivals(n int, gap sim.Time, jitter float64, seed int64) ([]sim.Time, error) {
	return new(Gen).AppendArrivals(nil, n, gap, jitter, seed)
}

// AppendArrivals appends the offsets Arrivals generates to dst and
// returns the extended slice.
func (g *Gen) AppendArrivals(dst []sim.Time, n int, gap sim.Time, jitter float64, seed int64) ([]sim.Time, error) {
	if n <= 0 || gap <= 0 {
		return dst, fmt.Errorf("workload: invalid arrival config n=%d gap=%v", n, gap)
	}
	if jitter < 0 || jitter >= 1 {
		return dst, fmt.Errorf("workload: jitter %v outside [0, 1)", jitter)
	}
	rng := g.seeded(seed)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	var t sim.Time
	for i := range out {
		g := gap
		if jitter > 0 {
			g = sim.Time(float64(gap) * (1 - jitter + 2*jitter*rng.Float64()))
			if g < 1 {
				g = 1
			}
		}
		t += g
		out[i] = t
	}
	return dst, nil
}
