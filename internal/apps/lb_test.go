package apps

import (
	"math/rand"
	"testing"

	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

var (
	vip      = net.IPv4(20, 0, 0, 1)
	backends = []net.IPAddr{
		net.IPv4(10, 0, 0, 1), net.IPv4(10, 0, 0, 2),
		net.IPv4(10, 0, 0, 3), net.IPv4(10, 0, 0, 4),
	}
)

func newLB(t *testing.T) *Layer4LB {
	t.Helper()
	lb, err := NewLayer4LB(platform.Xilinx, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.AddVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	return lb
}

func lbPacket(port uint16) *net.Packet {
	return &net.Packet{
		SrcIP: net.IPv4(1, 2, 3, 4), DstIP: vip,
		Proto: net.ProtoTCP, SrcPort: port, DstPort: 80,
		WireBytes: 256,
	}
}

func TestLBStatefulPinning(t *testing.T) {
	lb := newLB(t)
	b1, _, ok := lb.Process(0, lbPacket(5000))
	if !ok {
		t.Fatal("flow not balanced")
	}
	// Same flow always hits the same backend.
	for i := 0; i < 10; i++ {
		b, _, ok := lb.Process(0, lbPacket(5000))
		if !ok || b != b1 {
			t.Fatalf("flow moved from %v to %v", b1, b)
		}
	}
	st := lb.Stats()
	if st.Misses != 1 || st.Hits != 10 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if lb.Connections() != 1 {
		t.Errorf("connections = %d", lb.Connections())
	}
}

func TestLBSurvivesBackendRemoval(t *testing.T) {
	// Statefulness: established flows keep their backend when the pool
	// changes; only new flows see the new pool.
	lb := newLB(t)
	pinned, _, _ := lb.Process(0, lbPacket(6000))
	if err := lb.RemoveBackend(vip, pinned); err != nil {
		t.Fatal(err)
	}
	again, _, ok := lb.Process(0, lbPacket(6000))
	if !ok || again != pinned {
		t.Error("established flow rebalanced after pool change")
	}
	// New flows never land on the removed backend.
	for port := uint16(7000); port < 7200; port++ {
		b, _, ok := lb.Process(0, lbPacket(port))
		if ok && b == pinned {
			t.Fatal("new flow landed on drained backend")
		}
	}
	if err := lb.RemoveBackend(vip, net.IPv4(9, 9, 9, 9)); err == nil {
		t.Error("removing unknown backend should fail")
	}
	if err := lb.RemoveBackend(net.IPv4(9, 9, 9, 9), pinned); err == nil {
		t.Error("unknown VIP should fail")
	}
}

func TestLBFailBackendEvictsPinnedFlows(t *testing.T) {
	// Regression: RemoveBackend leaves flows pinned to the removed
	// backend (correct for planned drains), but a *failed* backend's
	// pins would blackhole forever. Evicting its table entries must
	// re-hash them.
	lb := newLB(t)
	dead, _, _ := lb.Process(0, lbPacket(6000))
	var pinnedToDead []uint16
	for port := uint16(6000); port < 6100; port++ {
		if b, _, _ := lb.Process(0, lbPacket(port)); b == dead {
			pinnedToDead = append(pinnedToDead, port)
		}
	}
	before := lb.Connections()
	if err := lb.RemoveBackend(vip, dead); err != nil {
		t.Fatal(err)
	}
	evicted := lb.flows.EvictBackend(dead)
	if evicted != len(pinnedToDead) {
		t.Errorf("evicted %d flows, want %d", evicted, len(pinnedToDead))
	}
	if lb.Connections() != before-evicted {
		t.Errorf("connections %d after eviction, want %d", lb.Connections(), before-evicted)
	}
	// The evicted flows re-hash onto live servers, never the corpse.
	for _, port := range pinnedToDead {
		b, _, ok := lb.Process(0, lbPacket(port))
		if !ok || b == dead {
			t.Fatalf("flow %d still lands on failed backend %v", port, b)
		}
	}
	if err := lb.RemoveBackend(vip, net.IPv4(9, 9, 9, 9)); err == nil {
		t.Error("failing unknown backend should error")
	}
}

func TestLBFullTableCountsLostStickiness(t *testing.T) {
	// Regression: a full connection table silently skipped the insert,
	// so new flows lost stickiness with no signal. The tableFull
	// counter is that signal, and service must continue.
	lb := newLB(t)
	lb.flows.max = 4
	for port := uint16(1000); port < 1010; port++ {
		if _, _, ok := lb.Process(0, lbPacket(port)); !ok {
			t.Fatal("packet dropped at full table")
		}
	}
	st := lb.Stats()
	if st.TableFull != 6 {
		t.Errorf("tableFull = %d, want 6 (10 new flows into 4 slots)", st.TableFull)
	}
	if lb.Connections() != 4 {
		t.Errorf("connections = %d, want capacity 4", lb.Connections())
	}
	// Established flows keep their pins and count hits.
	b1, _, _ := lb.Process(0, lbPacket(1000))
	b2, _, _ := lb.Process(0, lbPacket(1000))
	if b1 != b2 {
		t.Error("established flow moved while table full")
	}
}

func TestLBSpreadsFlows(t *testing.T) {
	lb := newLB(t)
	counts := map[net.IPAddr]int{}
	for port := uint16(1000); port < 2000; port++ {
		b, _, ok := lb.Process(0, lbPacket(port))
		if !ok {
			t.Fatal("flow not balanced")
		}
		counts[b]++
	}
	if len(counts) != len(backends) {
		t.Fatalf("flows reached %d backends, want %d", len(counts), len(backends))
	}
	for b, c := range counts {
		if c < 150 || c > 350 {
			t.Errorf("backend %v got %d of 1000 flows, want roughly even", b, c)
		}
	}
}

func TestLBUnknownVIPDrops(t *testing.T) {
	lb := newLB(t)
	p := lbPacket(1)
	p.DstIP = net.IPv4(99, 99, 99, 99)
	if _, _, ok := lb.Process(0, p); ok {
		t.Error("packet to unknown VIP balanced")
	}
	if st := lb.Stats(); st.NoVIP != 1 {
		t.Errorf("noVIP = %d", st.NoVIP)
	}
	if err := lb.AddVIP(net.IPv4(20, 0, 0, 2), nil); err == nil {
		t.Error("empty pool accepted")
	}
}

func TestLBThroughput(t *testing.T) {
	lb := newLB(t)
	pkts, _ := workload.Packets(workload.PacketConfig{
		Count: 2000, Size: 512, Flows: 64, VIPs: []net.IPAddr{vip}, Seed: 3,
	})
	var done sim.Time
	for _, p := range pkts {
		_, d, ok := lb.Process(0, p)
		if !ok {
			t.Fatal("packet dropped")
		}
		done = d
	}
	gbps := float64(2000*512*8) / done.Nanoseconds()
	if eff := net.EffectiveGbps(100, 512); gbps < eff*0.9 {
		t.Errorf("sustained %.1f Gbps at 512B, want near %.1f", gbps, eff)
	}
	if lb.Connections() > 64 {
		t.Errorf("connections = %d, want <= flow count", lb.Connections())
	}
}

func TestLBHeavyHitterHitRate(t *testing.T) {
	// Under Zipf traffic the connection table absorbs almost all
	// packets: hits vastly outnumber insertions.
	lb := newLB(t)
	zipf := rand.NewZipf(rand.New(rand.NewSource(11)), 1.3, 1, 511)
	flows := make([]int, 5000)
	for i := range flows {
		flows[i] = int(zipf.Uint64())
	}
	for _, f := range flows {
		p := lbPacket(uint16(1000 + f))
		if _, _, ok := lb.Process(0, p); !ok {
			t.Fatal("packet dropped")
		}
	}
	st := lb.Stats()
	if st.Hits+st.Misses != 5000 {
		t.Fatalf("hits+misses = %d", st.Hits+st.Misses)
	}
	hitRate := float64(st.Hits) / 5000
	if hitRate < 0.85 {
		t.Errorf("connection-table hit rate %.2f under zipf traffic, want > 0.85", hitRate)
	}
	if lb.Connections() != int(st.Misses) {
		t.Errorf("connections %d != misses %d", lb.Connections(), st.Misses)
	}
}
