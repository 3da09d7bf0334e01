package rbb

import (
	"testing"

	"harmonia/internal/ip"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

var (
	localMAC = net.HWAddr{0x02, 0, 0, 0, 0, 1}
	otherMAC = net.HWAddr{0x02, 0, 0, 0, 0, 9}
	mcastMAC = net.HWAddr{0x01, 0, 0x5e, 0, 0, 1}
)

func testPacket(dst net.HWAddr, size int, port uint16) *net.Packet {
	return &net.Packet{
		DstMAC: dst, SrcMAC: otherMAC,
		SrcIP: net.IPv4(10, 0, 0, 1), DstIP: net.IPv4(10, 0, 1, 1),
		Proto: net.ProtoTCP, SrcPort: port, DstPort: 443,
		WireBytes: size,
	}
}

func TestPacketFilter(t *testing.T) {
	f := NewPacketFilter()
	f.local[localMAC] = true
	if !f.Admit(testPacket(localMAC, 64, 1)) {
		t.Error("local packet filtered")
	}
	if f.Admit(testPacket(otherMAC, 64, 1)) {
		t.Error("foreign packet admitted")
	}
	// Multicast: only subscribed groups pass.
	if f.Admit(testPacket(mcastMAC, 64, 1)) {
		t.Error("unsubscribed multicast admitted")
	}
	f.groups[mcastMAC] = true
	if !f.Admit(testPacket(mcastMAC, 64, 1)) {
		t.Error("subscribed multicast filtered")
	}
	if f.dropped != 2 {
		t.Errorf("dropped = %d, want 2", f.dropped)
	}
	// Disabled filter passes everything.
	f.SetEnabled(false)
	if !f.Admit(testPacket(otherMAC, 64, 1)) {
		t.Error("disabled filter still filtering")
	}
}

func TestFlowDirectorIsolation(t *testing.T) {
	d := NewFlowDirector()
	if err := d.AddTenant(1, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.AddTenant(2, 8, 16); err != nil {
		t.Fatal(err)
	}
	// Overlapping ranges rejected.
	if err := d.AddTenant(3, 4, 12); err == nil {
		t.Error("overlapping tenant range accepted")
	}
	if err := d.AddTenant(4, 5, 5); err == nil {
		t.Error("empty tenant range accepted")
	}
	vip1, vip2 := net.IPv4(20, 0, 0, 1), net.IPv4(20, 0, 0, 2)
	if err := d.AddRule(vip1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRule(vip2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRule(vip1, 99); err == nil {
		t.Error("rule for unknown tenant accepted")
	}
	// Flows to each VIP land only in their tenant's queue range.
	for port := uint16(0); port < 200; port++ {
		p := testPacket(localMAC, 128, port)
		p.DstIP = vip1
		q, tenant, ok := d.Direct(p)
		if !ok || tenant != 1 || q < 0 || q >= 8 {
			t.Fatalf("vip1 flow -> q=%d tenant=%d ok=%v", q, tenant, ok)
		}
		p.DstIP = vip2
		q, tenant, ok = d.Direct(p)
		if !ok || tenant != 2 || q < 8 || q >= 16 {
			t.Fatalf("vip2 flow -> q=%d tenant=%d ok=%v", q, tenant, ok)
		}
	}
	// Unmatched flows drop by default.
	p := testPacket(localMAC, 128, 1)
	if _, _, ok := d.Direct(p); ok {
		t.Error("unmatched flow routed")
	}
	if d.misses == 0 {
		t.Error("miss not counted")
	}
	// ... unless a default tenant is set.
	d.SetDefaultTenant(1)
	if _, tenant, ok := d.Direct(p); !ok || tenant != 1 {
		t.Error("default tenant not applied")
	}
}

func TestFlowDirectorStableMapping(t *testing.T) {
	d := NewFlowDirector()
	d.AddTenant(1, 0, 16)
	d.SetDefaultTenant(1)
	p := testPacket(localMAC, 128, 7777)
	q1, _, _ := d.Direct(p)
	q2, _, _ := d.Direct(p)
	if q1 != q2 {
		t.Error("same flow mapped to different queues")
	}
}

func newNetRBB(t *testing.T, vendor platform.Vendor, speed ip.Speed) *NetworkRBB {
	t.Helper()
	n, err := NewNetwork(vendor, speed, userClk(), 512)
	if err != nil {
		t.Fatal(err)
	}
	n.Filter.local[localMAC] = true
	n.Director.AddTenant(0, 0, 64)
	n.Director.SetDefaultTenant(0)
	return n
}

func TestNetworkIngressDelivers(t *testing.T) {
	n := newNetRBB(t, platform.Xilinx, ip.Speed100G)
	done, q, ok := n.Ingress(0, testPacket(localMAC, 1024, 1))
	if !ok {
		t.Fatal("packet dropped")
	}
	if q < 0 || q >= 64 {
		t.Errorf("queue %d out of range", q)
	}
	if done <= 0 {
		t.Error("delivery took no time")
	}
	if n.RxStats().Units != 1 {
		t.Errorf("rx stats = %+v", n.RxStats())
	}
}

func TestNetworkIngressFilters(t *testing.T) {
	n := newNetRBB(t, platform.Xilinx, ip.Speed100G)
	_, _, ok := n.Ingress(0, testPacket(otherMAC, 1024, 1))
	if ok {
		t.Error("foreign packet delivered")
	}
	if n.RxStats().Drops != 1 {
		t.Errorf("drop not counted: %+v", n.RxStats())
	}
}

func TestNetworkThroughputNearLineRate(t *testing.T) {
	// Sustained ingress at large packets approaches the MAC line rate —
	// the wrapper must not cost throughput (Fig. 10a).
	n := newNetRBB(t, platform.Xilinx, ip.Speed100G)
	const pkts, size = 3000, 1024
	var done sim.Time
	for i := 0; i < pkts; i++ {
		d, _, ok := n.Ingress(0, testPacket(localMAC, size, uint16(i)))
		if !ok {
			t.Fatal("packet dropped")
		}
		done = d
	}
	gbps := float64(pkts*size*8) / done.Nanoseconds()
	eff := net.EffectiveGbps(100, size)
	if gbps < eff*0.97 {
		t.Errorf("sustained %.1f Gbps, want about %.1f", gbps, eff)
	}
}

func TestNetworkWrapperLatencyNanoseconds(t *testing.T) {
	n := newNetRBB(t, platform.Intel, ip.Speed100G)
	if lat := n.WrapperLatency(); lat > 100*sim.Nanosecond {
		t.Errorf("wrapper latency %v, want tens of ns", lat)
	}
}

func TestNetworkEgress(t *testing.T) {
	n := newNetRBB(t, platform.Xilinx, ip.Speed25G)
	done := n.Egress(0, testPacket(otherMAC, 512, 1))
	if done <= 0 {
		t.Error("egress took no time")
	}
	if n.TxStats().Units != 1 {
		t.Errorf("tx stats = %+v", n.TxStats())
	}
	if n.LineRateGbps() != 25 {
		t.Errorf("line rate = %v", n.LineRateGbps())
	}
}

func TestNetworkTailDropUnderOverload(t *testing.T) {
	// Role side at a quarter of the MAC bandwidth: the ingress buffer
	// fills and the RBB tail-drops, with loss visible in monitoring.
	slowClk := sim.NewClock("slow-user", 62.5) // 512b @ 62.5MHz = 32 Gbps
	n, err := NewNetwork(platform.Xilinx, ip.Speed100G, slowClk, 512)
	if err != nil {
		t.Fatal(err)
	}
	n.Filter.SetEnabled(false)
	n.Director.AddTenant(0, 0, 8)
	n.Director.SetDefaultTenant(0)
	const pkts = 3000
	for i := 0; i < pkts; i++ {
		n.Ingress(0, &net.Packet{WireBytes: 1024})
	}
	rx := n.RxStats()
	if rx.Drops == 0 {
		t.Fatal("overload produced no loss")
	}
	loss := float64(rx.Drops) / float64(rx.Units+rx.Drops)
	// Offered 100G into a 32G sink: about 2/3 lost.
	if loss < 0.5 || loss > 0.8 {
		t.Errorf("loss rate %.2f, want about 0.68", loss)
	}
	if n.maxBacklog == 0 {
		t.Error("queue usage not tracked")
	}
	if n.maxBacklog > 3*n.rxQueueCap {
		t.Errorf("backlog %v far beyond cap %v", n.maxBacklog, n.rxQueueCap)
	}
}

func TestNetworkNoDropAtLineRate(t *testing.T) {
	// A matched role never tail-drops.
	n := newNetRBB(t, platform.Xilinx, ip.Speed100G)
	for i := 0; i < 3000; i++ {
		n.Ingress(0, testPacket(localMAC, 1024, uint16(i)))
	}
	if drops := n.RxStats().Drops; drops != 0 {
		t.Errorf("matched-rate ingress dropped %d packets", drops)
	}
}

func TestNetworkRxQueueCapConfigurable(t *testing.T) {
	slowClk := sim.NewClock("slow-user", 62.5)
	n, _ := NewNetwork(platform.Xilinx, ip.Speed100G, slowClk, 512)
	n.Filter.SetEnabled(false)
	n.Director.AddTenant(0, 0, 8)
	n.Director.SetDefaultTenant(0)
	n.rxQueueCap = 0 // no buffering at all
	n.Ingress(0, &net.Packet{WireBytes: 1024})
	// First packet passes (empty pipe), immediate second overflows.
	_, _, ok := n.Ingress(0, &net.Packet{WireBytes: 1024})
	if ok {
		t.Error("zero-buffer ingress admitted a queued packet")
	}
}
