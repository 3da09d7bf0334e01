package harmonia

// Soak tests: long deterministic runs with invariants checked
// throughout. Skipped under -short.

import (
	"math/rand"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/mem"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

func TestSoakLBUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 100k packets of zipf traffic while the backend pool churns every
	// 10k packets: established flows must never move, counters must
	// balance, and every selected backend must be a pool member at
	// selection time.
	lb, err := apps.NewLayer4LB(platform.Xilinx, true)
	if err != nil {
		t.Fatal(err)
	}
	vip := net.IPv4(20, 0, 0, 1)
	backends := make([]net.IPAddr, 8)
	for i := range backends {
		backends[i] = net.IPv4(10, 0, 0, byte(i+1))
	}
	if err := lb.AddVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(21)), 1.2, 1, 4095)
	flows := make([]int, 100_000)
	for i := range flows {
		flows[i] = int(zipf.Uint64())
	}
	pinned := map[net.FlowKey]net.IPAddr{}
	removed := map[net.IPAddr]bool{}
	nextRemove := 0
	for i, f := range flows {
		if i > 0 && i%10_000 == 0 && nextRemove < 4 {
			victim := backends[nextRemove]
			if err := lb.RemoveBackend(vip, victim); err != nil {
				t.Fatal(err)
			}
			removed[victim] = true
			nextRemove++
		}
		p := &net.Packet{
			SrcIP: net.IPv4(1, 2, byte(f>>8), byte(f)), DstIP: vip,
			Proto: net.ProtoTCP, SrcPort: uint16(f), DstPort: 80, WireBytes: 256,
		}
		b, _, ok := lb.Process(0, p)
		if !ok {
			t.Fatalf("packet %d dropped", i)
		}
		key := p.Flow()
		if prev, seen := pinned[key]; seen {
			if b != prev {
				t.Fatalf("packet %d: established flow moved from %v to %v", i, prev, b)
			}
		} else {
			pinned[key] = b
			if removed[b] {
				t.Fatalf("packet %d: new flow sent to drained backend %v", i, b)
			}
		}
	}
	st := lb.Stats()
	if st.Hits+st.Misses != 100_000 || st.NoVIP != 0 {
		t.Errorf("counters: hits=%d misses=%d noVIP=%d", st.Hits, st.Misses, st.NoVIP)
	}
	if lb.Connections() != int(st.Misses) {
		t.Errorf("connections %d != misses %d", lb.Connections(), st.Misses)
	}
}

func TestSoakMemoryConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// 50k randomized writes then full verification: the memory RBB with
	// cache + interleaving must never lose or corrupt a byte.
	m, err := apps.NewRetrieval(platform.Xilinx, 16, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Mem.Device()
	type wr struct {
		addr int64
		val  byte
	}
	gen, err := workload.NewAccessGen(workload.Random, 64, 1<<26, 33)
	if err != nil {
		t.Fatal(err)
	}
	shadow := map[int64]byte{}
	var writes []wr
	var now sim.Time
	for i := 0; i < 50_000; i++ {
		addr := gen.Next()
		val := byte(i)
		buf := make([]byte, 64)
		for j := range buf {
			buf[j] = val
		}
		now = m.Mem.Write(now, addr, buf)
		shadow[addr] = val
		writes = append(writes, wr{addr, val})
	}
	_ = writes
	for addr, val := range shadow {
		data := dev.Peek(addr, 64)
		for j, got := range data {
			if got != val {
				t.Fatalf("addr %d byte %d = %d, want %d", addr, j, got, val)
			}
		}
	}
	if now <= 0 {
		t.Error("soak consumed no simulated time")
	}
}

func TestSoakRDMABidirectional(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Sustained bidirectional RDMA over lossy links: every transfer
	// delivered exactly once, data verified on both sides.
	a, err := net.NewQP(1, mem.NewStore(), net.NewLossyLink("a", 100, sim.Microsecond, 11), 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.NewQP(2, mem.NewStore(), net.NewLossyLink("b", 100, sim.Microsecond, 7), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(a, b); err != nil {
		t.Fatal(err)
	}
	const rounds = 300
	var ta, tb sim.Time
	for i := 0; i < rounds; i++ {
		pa := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
		a.Memory().Write(int64(i)*8, pa)
		ta, err = a.Post(ta, net.WorkRequest{
			ID: uint64(i), Verb: net.VerbWrite, Bytes: 4,
			LocalAddr: int64(i) * 8, RemoteAddr: 1<<20 + int64(i)*8,
		})
		if err != nil {
			t.Fatal(err)
		}
		pb := []byte{byte(i * 3)}
		b.Memory().Write(1<<24+int64(i), pb)
		tb, err = b.Post(tb, net.WorkRequest{
			ID: uint64(i), Verb: net.VerbWrite, Bytes: 1,
			LocalAddr: 1<<24 + int64(i), RemoteAddr: 1<<25 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rounds; i++ {
		got := b.Memory().Read(1<<20+int64(i)*8, 4)
		if got[0] != byte(i) || got[3] != byte(i+3) {
			t.Fatalf("round %d: a->b data corrupted: %v", i, got)
		}
		if a.Memory().Read(1<<25+int64(i), 1)[0] != byte(i*3) {
			t.Fatalf("round %d: b->a data corrupted", i)
		}
	}
	if a.Retransmissions() == 0 || b.Retransmissions() == 0 {
		t.Error("lossy links produced no retransmissions")
	}
}
