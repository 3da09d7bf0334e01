package apps

import (
	"testing"

	"harmonia/internal/net"
)

func flowKey(src net.IPAddr, sp uint16) net.FlowKey {
	return net.FlowKey{
		SrcIP: src, DstIP: net.IPv4(10, 0, 0, 9),
		Proto: net.ProtoTCP, SrcPort: sp, DstPort: 8080,
	}
}

func TestClassifierDefault(t *testing.T) {
	c := NewClassifier()
	if act := c.Classify(flowKey(net.IPv4(1, 1, 1, 1), 1)); act != ActionToHost {
		t.Errorf("default action = %v", act)
	}
	if len(c.rules) != 0 {
		t.Error("fresh classifier has rules")
	}
}

func TestClassifierWildcardPriority(t *testing.T) {
	c := NewClassifier()
	// Low priority: drop everything from 192.168/16.
	if err := c.AddRule(WildcardRule{
		Mask:     FlowMask{SrcIPBits: 16},
		Match:    net.FlowKey{SrcIP: net.IPv4(192, 168, 0, 0)},
		Action:   ActionDrop,
		Priority: 10,
	}); err != nil {
		t.Fatal(err)
	}
	// High priority: hairpin 192.168.1/24.
	if err := c.AddRule(WildcardRule{
		Mask:     FlowMask{SrcIPBits: 24},
		Match:    net.FlowKey{SrcIP: net.IPv4(192, 168, 1, 0)},
		Action:   ActionForward,
		Priority: 20,
	}); err != nil {
		t.Fatal(err)
	}
	if act := c.Classify(flowKey(net.IPv4(192, 168, 1, 5), 1)); act != ActionForward {
		t.Errorf("high-priority rule lost: %v", act)
	}
	if act := c.Classify(flowKey(net.IPv4(192, 168, 2, 5), 1)); act != ActionDrop {
		t.Errorf("masked rule missed: %v", act)
	}
	if act := c.Classify(flowKey(net.IPv4(8, 8, 8, 8), 1)); act != ActionToHost {
		t.Errorf("unmatched flow = %v", act)
	}
}

func TestClassifierPortAndProtoMasks(t *testing.T) {
	c := NewClassifier()
	c.AddRule(WildcardRule{
		Mask:     FlowMask{DstPort: true},
		Match:    net.FlowKey{DstPort: 8080},
		Action:   ActionDrop,
		Priority: 5,
	})
	if act := c.Classify(flowKey(net.IPv4(5, 5, 5, 5), 9)); act != ActionDrop {
		t.Error("dst-port rule missed")
	}
	other := flowKey(net.IPv4(5, 5, 5, 5), 9)
	other.DstPort = 443
	if act := c.Classify(other); act != ActionToHost {
		t.Error("dst-port rule overmatched")
	}
	c2 := NewClassifier()
	c2.AddRule(WildcardRule{
		Mask:     FlowMask{Proto: true, SrcPort: true},
		Match:    net.FlowKey{Proto: net.ProtoUDP, SrcPort: 53},
		Action:   ActionForward,
		Priority: 5,
	})
	k := flowKey(net.IPv4(5, 5, 5, 5), 53)
	k.Proto = net.ProtoUDP
	if act := c2.Classify(k); act != ActionForward {
		t.Error("proto+port rule missed")
	}
}

func TestClassifierExactCache(t *testing.T) {
	c := NewClassifier()
	c.AddRule(WildcardRule{
		Mask:     FlowMask{SrcIPBits: 8},
		Match:    net.FlowKey{SrcIP: net.IPv4(7, 0, 0, 0)},
		Action:   ActionDrop,
		Priority: 1,
	})
	k := flowKey(net.IPv4(7, 1, 2, 3), 4)
	c.Classify(k) // wildcard walk, caches
	c.Classify(k) // cache hit
	hits, misses := c.hits, c.misses
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d, want 1/1", hits, misses)
	}
	// Installing a rule invalidates the cache.
	c.AddRule(WildcardRule{Priority: 99, Action: ActionForward})
	if act := c.Classify(k); act != ActionForward {
		t.Errorf("stale cache served after rule change: %v", act)
	}
}

func TestClassifierPinnedSurvivesRules(t *testing.T) {
	c := NewClassifier()
	k := flowKey(net.IPv4(9, 9, 9, 9), 1)
	c.Pin(k, ActionDrop)
	// A catch-all forward rule does not override the pin.
	c.AddRule(WildcardRule{Priority: 100, Action: ActionForward})
	if act := c.Classify(k); act != ActionDrop {
		t.Errorf("pinned entry lost: %v", act)
	}
}

func TestClassifierValidation(t *testing.T) {
	c := NewClassifier()
	if err := c.AddRule(WildcardRule{Mask: FlowMask{SrcIPBits: 40}}); err == nil {
		t.Error("invalid prefix accepted")
	}
}

func TestHostNetworkWildcardIntegration(t *testing.T) {
	hn := newHN(t)
	// Drop everything from 10.66/16 regardless of port.
	if err := hn.InstallWildcard(WildcardRule{
		Mask:     FlowMask{SrcIPBits: 16},
		Match:    net.FlowKey{SrcIP: net.IPv4(10, 66, 0, 0)},
		Action:   ActionDrop,
		Priority: 50,
	}); err != nil {
		t.Fatal(err)
	}
	bad := hnPacket(1234, 256)
	bad.SrcIP = net.IPv4(10, 66, 3, 4)
	if _, _, _, act := hn.Offload(0, bad); act != ActionDrop {
		t.Errorf("wildcard drop missed: %v", act)
	}
	good := hnPacket(1234, 256)
	if _, _, _, act := hn.Offload(0, good); act != ActionToHost {
		t.Errorf("benign flow = %v", act)
	}
}

func TestMaskIP(t *testing.T) {
	a := net.IPv4(192, 168, 31, 7)
	if maskIP(a, 32) != a {
		t.Error("full mask changed address")
	}
	if maskIP(a, 0) != (net.IPAddr{}) {
		t.Error("zero mask nonzero")
	}
	if maskIP(a, 16) != net.IPv4(192, 168, 0, 0) {
		t.Errorf("mask/16 = %v", maskIP(a, 16))
	}
	if maskIP(a, 20) != net.IPv4(192, 168, 16, 0) {
		t.Errorf("mask/20 = %v", maskIP(a, 20))
	}
}
