package apps

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/shell"
	"harmonia/internal/sim"
)

// Layer4LBInfo describes the stateful layer-4 load balancer: a
// SmartNIC distributing incoming flows across real servers (the
// Tiara/Maglev-style service of §5.1).
func Layer4LBInfo() Info {
	return Info{
		Name:         "layer4-lb",
		Architecture: BITW,
		Kind:         "network",
		Demands: shell.Demands{
			Network: &shell.NetworkDemand{Gbps: 100, Director: true},
			Memory:  []shell.MemoryDemand{{Kind: ip.HBMMem}},
			Host:    &shell.HostDemand{Bulk: true, Queues: 64},
		},
		RoleLoC:    9_800,
		RoleRes:    hdl.Resources{LUT: 110_000, REG: 170_000, BRAM: 320, URAM: 48},
		Categories: []string{"mac", "pcie-dma", "pcie-phy", "hbm", "mgmt", "uck"},
	}
}

// Layer4LB is the functional load balancer: per-VIP backend pools, a
// stateful connection table pinning established flows, and consistent
// hashing for new flows.
type Layer4LB struct {
	Net   *rbb.NetworkRBB
	clk   *sim.Clock
	pools map[net.IPAddr]*Maglev
	flows *FlowTable
	noVIP int64
}

// NewLayer4LB builds the LB on a vendor's 100G Network RBB.
func NewLayer4LB(vendor platform.Vendor, harmonia bool) (*Layer4LB, error) {
	clk := UserClock()
	n, err := rbb.NewNetwork(vendor, ip.Speed100G, clk, UserWidth)
	if err != nil {
		return nil, err
	}
	n.SetNative(!harmonia)
	n.Filter.SetEnabled(false)
	n.Director.AddTenant(0, 0, 64)
	n.Director.SetDefaultTenant(0)
	return &Layer4LB{
		Net:   n,
		clk:   clk,
		pools: make(map[net.IPAddr]*Maglev),
		flows: NewFlowTable(1 << 20),
	}, nil
}

// AddVIP registers a virtual IP with its backend pool, building the
// Maglev consistent-hashing table for it.
func (lb *Layer4LB) AddVIP(vip net.IPAddr, backends []net.IPAddr) error {
	if len(backends) == 0 {
		return fmt.Errorf("apps: VIP %s has no backends", vip)
	}
	m, err := NewMaglev(backends)
	if err != nil {
		return err
	}
	lb.pools[vip] = m
	return nil
}

// RemoveBackend drains a backend from a VIP's pool, rebuilding the
// Maglev table; established flows keep their pinned backend
// (statefulness, so draining connections finish on the old server) and
// most new-flow mappings stay put (consistency). For a backend that
// *failed*, also evict its pins from the connection table
// (FlowTable.EvictBackend, as the fleet does): a dead server's pinned
// flows must be evicted, not drained.
func (lb *Layer4LB) RemoveBackend(vip, backend net.IPAddr) error {
	pool, ok := lb.pools[vip]
	if !ok {
		return fmt.Errorf("apps: unknown VIP %s", vip)
	}
	var out []net.IPAddr
	for _, b := range pool.Backends() {
		if b != backend {
			out = append(out, b)
		}
	}
	if len(out) == len(pool.Backends()) {
		return fmt.Errorf("apps: backend %s not in pool of %s", backend, vip)
	}
	m, err := NewMaglev(out)
	if err != nil {
		return err
	}
	lb.pools[vip] = m
	return nil
}

// Process load-balances one packet: ingress, connection-table lookup,
// backend selection for new flows, egress toward the chosen backend.
func (lb *Layer4LB) Process(now sim.Time, p *net.Packet) (backend net.IPAddr, done sim.Time, ok bool) {
	in, _, admitted := lb.Net.Ingress(now, p)
	if !admitted {
		return net.IPAddr{}, in, false
	}
	key := p.Flow()
	// Connection-table lookup: two role cycles (hash + table read).
	t := in + lb.clk.CyclesTime(2)
	if b, est := lb.flows.Lookup(key); est {
		return b, lb.Net.Egress(t, p), true
	}
	pool, has := lb.pools[p.DstIP]
	if !has {
		lb.noVIP++
		return net.IPAddr{}, t, false
	}
	b := pool.Lookup(key)
	lb.flows.Pin(key, b)
	// New-flow insert costs three extra cycles (pool walk + insert).
	return b, lb.Net.Egress(t+lb.clk.CyclesTime(3), p), true
}

// Connections reports the established flow count.
func (lb *Layer4LB) Connections() int { return lb.flows.Len() }

// LBStats is the load balancer's counter set.
type LBStats struct {
	// Hits and Misses count connection-table lookups against
	// established flows vs new-flow pins; NoVIP counts packets dropped
	// for an unknown VIP; TableFull counts pins refused at capacity —
	// flows that silently lost stickiness.
	Hits, Misses, NoVIP, TableFull int64
}

// Stats reports the table and drop counters.
func (lb *Layer4LB) Stats() LBStats {
	hits, misses, full := lb.flows.Stats()
	return LBStats{Hits: hits, Misses: misses, NoVIP: lb.noVIP, TableFull: full}
}
