// Package net provides the functional Ethernet substrate: packet and
// flow models, serializing link models with preamble/IFG overhead, and
// header checksum helpers. The Network RBB, the bump-in-the-wire
// applications and the TCP transmission benchmark run on this substrate.
package net

import (
	"encoding/binary"
	"fmt"

	"harmonia/internal/sim"
)

// HWAddr is a 48-bit Ethernet address.
type HWAddr [6]byte

// String formats the address conventionally.
func (a HWAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// IsMulticast reports whether the group bit is set.
func (a HWAddr) IsMulticast() bool { return a[0]&1 == 1 }

// IPAddr is an IPv4 address.
type IPAddr [4]byte

// String formats the address in dotted quad form.
func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IPv4 builds an address from octets.
func IPv4(a, b, c, d byte) IPAddr { return IPAddr{a, b, c, d} }

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Packet is a simplified Ethernet/IPv4/L4 frame. WireBytes is the full
// on-wire frame length (headers + payload + FCS); Payload carries
// application data when functional processing needs it.
type Packet struct {
	DstMAC, SrcMAC   HWAddr
	SrcIP, DstIP     IPAddr
	Proto            uint8
	SrcPort, DstPort uint16
	Seq              uint32
	WireBytes        int
	Payload          []byte
}

// Ethernet framing constants.
const (
	MinFrame = 64
	MaxFrame = 9216
	// FrameOverhead is the preamble + SFD + inter-frame gap charged on
	// the wire beyond the frame itself (7+1+12 bytes).
	FrameOverhead = 20
	// HeaderBytes is the Ethernet+IPv4+TCP header footprint of the
	// simplified packet (14 + 20 + 20 + 4 FCS).
	HeaderBytes = 58
)

// FlowKey is the 5-tuple used for stateful flow processing.
type FlowKey struct {
	SrcIP, DstIP     IPAddr
	Proto            uint8
	SrcPort, DstPort uint16
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, Proto: p.Proto,
		SrcPort: p.SrcPort, DstPort: p.DstPort}
}

// Hash returns a stable 64-bit hash of the key (FNV-1a over the tuple
// followed by an avalanche finalizer), usable for ECMP-style selection.
// The finalizer matters: raw FNV's low bits are linear in the input
// bytes, which biases modulo-style backend picks.
func (k FlowKey) Hash() uint64 {
	var buf [13]byte
	copy(buf[0:4], k.SrcIP[:])
	copy(buf[4:8], k.DstIP[:])
	buf[8] = k.Proto
	binary.BigEndian.PutUint16(buf[9:11], k.SrcPort)
	binary.BigEndian.PutUint16(buf[11:13], k.DstPort)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Checksum computes the ones-complement Internet checksum over data —
// the operation the Host Network application offloads.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Link models a serializing Ethernet link: frames occupy the wire for
// their serialization time plus fixed framing overhead, then arrive
// after the propagation delay.
type Link struct {
	gbps      float64
	propDelay sim.Time
	busyUntil sim.Time
}

// NewLink returns a link of the given rate and propagation delay.
func NewLink(name string, gbps float64, propDelay sim.Time) *Link {
	if gbps <= 0 {
		panic(fmt.Sprintf("net: link %q rate %v must be positive", name, gbps))
	}
	return &Link{gbps: gbps, propDelay: propDelay}
}

// Transmit serializes a frame of wireBytes starting no earlier than now
// and returns its arrival time at the far end.
func (l *Link) Transmit(now sim.Time, wireBytes int) (arrive sim.Time) {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := sim.Time(float64(wireBytes+FrameOverhead) * 8 / l.gbps * float64(sim.Nanosecond))
	if ser < 1 {
		ser = 1
	}
	l.busyUntil = start + ser
	return l.busyUntil + l.propDelay
}

// EffectiveGbps reports the goodput achievable at a frame size, after
// framing overhead — the reason small-packet throughput sits below line
// rate in Figs. 10a and 17.
func EffectiveGbps(lineGbps float64, frameBytes int) float64 {
	return lineGbps * float64(frameBytes) / float64(frameBytes+FrameOverhead)
}
