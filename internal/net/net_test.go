package net

import (
	"testing"
	"testing/quick"

	"harmonia/internal/sim"
)

func TestHWAddr(t *testing.T) {
	a := HWAddr{0x00, 0x1b, 0x21, 0xaa, 0xbb, 0xcc}
	if a.String() != "00:1b:21:aa:bb:cc" {
		t.Errorf("String() = %q", a.String())
	}
	if a.IsMulticast() {
		t.Error("unicast address reported multicast")
	}
	m := HWAddr{0x01, 0, 0x5e, 0, 0, 1}
	if !m.IsMulticast() {
		t.Error("multicast address not detected")
	}
}

func TestIPAddr(t *testing.T) {
	if IPv4(10, 0, 0, 1).String() != "10.0.0.1" {
		t.Errorf("String() = %q", IPv4(10, 0, 0, 1).String())
	}
}

func TestFlowHashDeterministicAndSpread(t *testing.T) {
	k1 := FlowKey{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), Proto: 6, SrcPort: 1, DstPort: 2}
	if k1.Hash() != k1.Hash() {
		t.Error("Hash not deterministic")
	}
	// Different keys should spread: check a sample of ports maps to
	// more than half the buckets of a 16-way table.
	buckets := map[uint64]bool{}
	for port := uint16(0); port < 256; port++ {
		k := k1
		k.SrcPort = port
		buckets[k.Hash()%16] = true
	}
	if len(buckets) < 12 {
		t.Errorf("hash spread over %d/16 buckets", len(buckets))
	}
}

func TestChecksum(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
	// Odd length is handled.
	_ = Checksum([]byte{0x01, 0x02, 0x03})
	// Checksum over data plus its checksum verifies to zero.
	withSum := append(append([]byte{}, data...), 0x22, 0x0d)
	if got := Checksum(withSum); got != 0 {
		t.Errorf("verify Checksum = %#04x, want 0", got)
	}
}

func TestChecksumIncrementalProperty(t *testing.T) {
	// Appending two zero bytes never changes the checksum.
	f := func(data []byte) bool {
		return Checksum(data) == Checksum(append(append([]byte{}, data...), 0, 0)) || len(data)%2 == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkSerialization(t *testing.T) {
	l := NewLink("eth0", 100, 0) // 100 Gbps, no prop delay
	// A 1000B frame + 20B overhead at 100Gbps = 81.6ns.
	arrive := l.Transmit(0, 1000)
	want := sim.Time(float64(1020*8) / 100 * float64(sim.Nanosecond))
	if arrive != want {
		t.Errorf("arrival = %v, want %v", arrive, want)
	}
	// Back-to-back frames serialize.
	second := l.Transmit(0, 1000)
	if second != 2*want {
		t.Errorf("second arrival = %v, want %v", second, 2*want)
	}
}

func TestLinkPropagationDelay(t *testing.T) {
	l := NewLink("wan", 100, 500*sim.Nanosecond)
	arrive := l.Transmit(0, 64)
	if arrive <= 500*sim.Nanosecond {
		t.Errorf("arrival %v should include propagation delay", arrive)
	}
	if l.busyUntil >= arrive {
		t.Error("wire busy time should exclude propagation delay")
	}
}

func TestLinkThroughputMatchesLineRate(t *testing.T) {
	l := NewLink("eth", 100, 0)
	const frames = 10_000
	const size = 1024
	var last sim.Time
	for i := 0; i < frames; i++ {
		last = l.Transmit(0, size)
	}
	gbps := float64(frames*size*8) / last.Nanoseconds()
	want := EffectiveGbps(100, size)
	if gbps < want*0.99 || gbps > want*1.01 {
		t.Errorf("sustained %0.2f Gbps, want about %0.2f", gbps, want)
	}
}

func TestEffectiveGbpsSmallFramesPenalized(t *testing.T) {
	small := EffectiveGbps(100, 64)
	large := EffectiveGbps(100, 1500)
	if small >= large {
		t.Error("small frames should see lower goodput")
	}
	if small > 80 {
		t.Errorf("64B goodput = %v, want about 76 Gbps", small)
	}
}

func TestNewLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLink(0 Gbps) did not panic")
		}
	}()
	NewLink("bad", 0, 0)
}

func TestFlowHashLowBitsUnbiased(t *testing.T) {
	// Regression: flows whose low byte appears in both srcIP and
	// srcPort cancel in raw FNV's linear low bit; the finalizer must
	// spread them across all mod-4 buckets (backend selection).
	buckets := map[uint64]int{}
	for flow := 0; flow < 256; flow++ {
		k := FlowKey{
			SrcIP:   IPv4(172, 16, byte(flow>>8), byte(flow)),
			DstIP:   IPv4(20, 0, 0, 1),
			Proto:   ProtoTCP,
			SrcPort: uint16(1024 + flow),
			DstPort: 443,
		}
		buckets[k.Hash()%4]++
	}
	if len(buckets) != 4 {
		t.Fatalf("mod-4 buckets used: %d, want 4 (%v)", len(buckets), buckets)
	}
	for b, c := range buckets {
		if c < 32 || c > 96 {
			t.Errorf("bucket %d has %d of 256, want roughly even", b, c)
		}
	}
}
