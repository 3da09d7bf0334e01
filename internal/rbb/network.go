package rbb

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/wrapper"
)

// PacketFilter is the Network RBB's first Ex-function: it intercepts
// packets whose destination address does not belong to the local
// machine, while admitting subscribed multicast groups (§3.3.1).
type PacketFilter struct {
	enabled bool
	local   map[net.HWAddr]bool
	groups  map[net.HWAddr]bool
	dropped int64
}

// NewPacketFilter returns an enabled filter with no addresses.
func NewPacketFilter() *PacketFilter {
	return &PacketFilter{
		enabled: true,
		local:   make(map[net.HWAddr]bool),
		groups:  make(map[net.HWAddr]bool),
	}
}

// SetEnabled switches filtering on or off (off passes everything).
func (f *PacketFilter) SetEnabled(on bool) { f.enabled = on }

// Admit reports whether the packet passes the filter.
func (f *PacketFilter) Admit(p *net.Packet) bool {
	if !f.enabled {
		return true
	}
	if p.DstMAC.IsMulticast() {
		if f.groups[p.DstMAC] {
			return true
		}
		f.dropped++
		return false
	}
	if f.local[p.DstMAC] {
		return true
	}
	f.dropped++
	return false
}

// FlowDirector is the Network RBB's second Ex-function: it steers
// incoming flows to their tenants' host queue ranges, isolating
// multi-tenant traffic (§3.3.1).
type FlowDirector struct {
	// tenants maps tenant id to its queue range [lo, hi).
	tenants map[int][2]int
	// rules maps a destination IP to a tenant.
	rules map[net.IPAddr]int
	// defaultTenant receives unmatched flows; -1 drops them.
	defaultTenant int
	misses        int64
}

// NewFlowDirector returns a director that drops unmatched flows.
func NewFlowDirector() *FlowDirector {
	return &FlowDirector{
		tenants:       make(map[int][2]int),
		rules:         make(map[net.IPAddr]int),
		defaultTenant: -1,
	}
}

// AddTenant registers a tenant owning host queues [lo, hi).
func (d *FlowDirector) AddTenant(id, lo, hi int) error {
	if lo < 0 || hi <= lo {
		return fmt.Errorf("rbb: tenant %d queue range [%d,%d) invalid", id, lo, hi)
	}
	for other, r := range d.tenants {
		if other != id && lo < r[1] && r[0] < hi {
			return fmt.Errorf("rbb: tenant %d range [%d,%d) overlaps tenant %d [%d,%d)",
				id, lo, hi, other, r[0], r[1])
		}
	}
	d.tenants[id] = [2]int{lo, hi}
	return nil
}

// RemoveTenant forgets a tenant's queue range and every steering rule
// pointing at it — the scrub half of a drain-and-rebuild cycle. It is
// idempotent: removing an unknown tenant is a no-op.
func (d *FlowDirector) RemoveTenant(id int) {
	delete(d.tenants, id)
	for dst, t := range d.rules {
		if t == id {
			delete(d.rules, dst)
		}
	}
	if d.defaultTenant == id {
		d.defaultTenant = -1
	}
}

// AddRule routes traffic destined to ipDst to a tenant.
func (d *FlowDirector) AddRule(ipDst net.IPAddr, tenant int) error {
	if _, ok := d.tenants[tenant]; !ok {
		return fmt.Errorf("rbb: unknown tenant %d", tenant)
	}
	d.rules[ipDst] = tenant
	return nil
}

// SetDefaultTenant routes unmatched flows to a tenant (or -1 to drop).
func (d *FlowDirector) SetDefaultTenant(id int) { d.defaultTenant = id }

// Direct returns the host queue and tenant for a packet. ok is false
// when the flow matches no tenant.
func (d *FlowDirector) Direct(p *net.Packet) (queue, tenant int, ok bool) {
	t, matched := d.rules[p.DstIP]
	if !matched {
		t = d.defaultTenant
	}
	r, exists := d.tenants[t]
	if !exists {
		d.misses++
		return 0, 0, false
	}
	span := r[1] - r[0]
	q := r[0] + int(p.Flow().Hash()%uint64(span))
	return q, t, true
}

// Resolve returns the tenant and queue range [lo, hi) a destination
// address steers into, without consuming a packet — the resolve-once
// path for callers that cache per-flow steering and derive the queue
// from the flow hash themselves. ok is false when no tenant matches
// (counted as a miss, as Direct would).
func (d *FlowDirector) Resolve(dst net.IPAddr) (lo, hi, tenant int, ok bool) {
	t, matched := d.rules[dst]
	if !matched {
		t = d.defaultTenant
	}
	r, exists := d.tenants[t]
	if !exists {
		d.misses++
		return 0, 0, 0, false
	}
	return r[0], r[1], t, true
}

// NetworkRBB is the functional Network building block: a MAC instance
// behind an interface wrapper, with the packet filter and flow director
// Ex-functions and real-time monitoring.
type NetworkRBB struct {
	desc     *Desc
	spec     ip.MACSpec
	rxLink   *net.Link
	txLink   *net.Link
	rxPath   *wrapper.DataPath
	txPath   *wrapper.DataPath
	Filter   *PacketFilter
	Director *FlowDirector
	rx, tx   Counters
	// rxQueueCap bounds the ingress queueing delay; arrivals that would
	// queue longer tail-drop (the packet-loss condition the monitoring
	// reports).
	rxQueueCap sim.Time
	maxBacklog sim.Time
}

// NewNetwork builds a Network RBB for a vendor's MAC at the given line
// rate, with the role side running at userClk and userWidth.
func NewNetwork(vendor platform.Vendor, speed ip.Speed, userClk *sim.Clock, userWidth int) (*NetworkRBB, error) {
	spec, err := ip.SpecForMAC(speed)
	if err != nil {
		return nil, err
	}
	desc, err := NewNetworkDesc(vendor, speed)
	if err != nil {
		return nil, err
	}
	macClk := sim.NewClock(fmt.Sprintf("mac%dg", speed), spec.CoreMHz)
	rxPath, err := wrapper.NewDataPath("net-rbb-rx", macClk, spec.DataWidth, userClk, userWidth)
	if err != nil {
		return nil, err
	}
	txPath, err := wrapper.NewDataPath("net-rbb-tx", userClk, userWidth, macClk, spec.DataWidth)
	if err != nil {
		return nil, err
	}
	return &NetworkRBB{
		desc:     desc,
		spec:     spec,
		rxLink:   net.NewLink(fmt.Sprintf("wire-%dg-rx", speed), float64(speed), 0),
		txLink:   net.NewLink(fmt.Sprintf("wire-%dg-tx", speed), float64(speed), 0),
		rxPath:   rxPath,
		txPath:   txPath,
		Filter:   NewPacketFilter(),
		Director: NewFlowDirector(),
		// Default ingress buffer: ~64KB at line rate worth of delay.
		rxQueueCap: sim.Time(float64(64<<10) * 8 / float64(speed) * float64(sim.Nanosecond)),
	}, nil
}

func networkDesc(wrapped *hdl.Module, overhead hdl.Resources) *Desc {
	return &Desc{
		Kind:         NetworkKind,
		Instance:     wrapped,
		WrapOverhead: overhead,
		InstanceGlue: hdl.LoC{Handcraft: 1_300},
		Reusable: ReusableLogic{
			ExFunction: hdl.LoC{Handcraft: 4_200}, // packet filter + flow director
			Control:    hdl.LoC{Handcraft: 1_100},
			Monitoring: hdl.LoC{Handcraft: 900},
			Res:        hdl.Resources{LUT: 9_500, REG: 14_000, BRAM: 18},
			Params: []hdl.Param{
				{Name: "FILTER_ENABLE", Default: "1", Scope: hdl.RoleOriented},
				{Name: "DIRECTOR_TENANTS", Default: "4", Scope: hdl.RoleOriented},
				{Name: "STATS_WINDOW", Default: "1ms", Scope: hdl.RoleOriented},
			},
		},
	}
}

// Ingress carries one packet from the wire through the MAC, wrapper,
// filter and director. It returns the delivery time, the selected host
// queue, and whether the packet survived.
func (n *NetworkRBB) Ingress(now sim.Time, p *net.Packet) (done sim.Time, queue int, ok bool) {
	arrive := n.rxLink.Transmit(now, p.WireBytes)
	if !n.Filter.Admit(p) {
		n.rx.Record(p.WireBytes, true)
		return arrive, 0, false
	}
	q, _, routed := n.Director.Direct(p)
	if !routed {
		n.rx.Record(p.WireBytes, true)
		return arrive, 0, false
	}
	// Tail drop: if the ingress buffer is full (the role side cannot
	// drain fast enough), the packet is lost and counted.
	if backlog := n.rxPath.Backlog(arrive); backlog > n.rxQueueCap {
		n.rx.Record(p.WireBytes, true)
		return arrive, 0, false
	}
	if b := n.rxPath.Backlog(arrive); b > n.maxBacklog {
		n.maxBacklog = b
	}
	done = n.rxPath.Transfer(arrive, p.WireBytes)
	n.rx.Record(p.WireBytes, false)
	return done, q, true
}

// IngressDirected carries one packet whose filter admission and flow
// steering were already resolved (FlowDirector.Resolve): wire, wrapper
// datapath and tail-drop check only. With the filter disabled and the
// steering decision cached per flow, the outcome is identical to
// Ingress — it is the batched router's amortized variant of the same
// device crossing.
func (n *NetworkRBB) IngressDirected(now sim.Time, p *net.Packet) (done sim.Time, ok bool) {
	arrive := n.rxLink.Transmit(now, p.WireBytes)
	backlog := n.rxPath.Backlog(arrive)
	if backlog > n.rxQueueCap {
		n.rx.Record(p.WireBytes, true)
		return arrive, false
	}
	if backlog > n.maxBacklog {
		n.maxBacklog = backlog
	}
	done = n.rxPath.Transfer(arrive, p.WireBytes)
	n.rx.Record(p.WireBytes, false)
	return done, true
}

// Egress carries one packet from the role out to the wire.
func (n *NetworkRBB) Egress(now sim.Time, p *net.Packet) (done sim.Time) {
	through := n.txPath.Transfer(now, p.WireBytes)
	done = n.txLink.Transmit(through, p.WireBytes)
	n.tx.Record(p.WireBytes, false)
	return done
}

// RxStats and TxStats expose the monitoring counters.
func (n *NetworkRBB) RxStats() Counters { return n.rx }

// TxStats reports egress counters.
func (n *NetworkRBB) TxStats() Counters { return n.tx }

// WrapperLatency reports the fixed latency the wrapper inserts on one
// direction.
func (n *NetworkRBB) WrapperLatency() sim.Time { return n.rxPath.FixedLatency() }

// LineRateGbps reports the MAC line rate.
func (n *NetworkRBB) LineRateGbps() float64 { return float64(n.spec.Speed) }

// SetNative toggles native mode: the vendor instance is used without
// the interface wrapper's translation pipeline (the "w/o Harmonia"
// configuration of Fig. 17).
func (n *NetworkRBB) SetNative(on bool) {
	n.rxPath.SetBypass(on)
	n.txPath.SetBypass(on)
}
