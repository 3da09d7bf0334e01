package fleet

import (
	"fmt"

	"harmonia/internal/gossip"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// Gossip-mode health monitoring: with Config.GossipHealth set, each
// Heartbeat tick runs one round of the SWIM-style detector instead of
// sweeping a cohort. The detector's direct probes are the same
// command-path CheckHealth the central sweep issued — temperature
// readback, thermal-recovery detection and connection-table snapshot
// pacing all ride on them — and its piggybacked digests carry peers'
// data-plane liveness observations. A Confirmed event (FailedAfter
// consecutive missed direct probes) feeds the exact failNode path the
// central sweep used, so evacuation, re-placement and the failover
// report are untouched; a false suspicion resolves to a Refuted event
// with an incarnation bump and never reaches failover.

// GossipEvent is one fleet-level protocol event: a node entering
// suspicion, defending itself, or being confirmed dead.
type GossipEvent struct {
	At   sim.Time
	Node string
	// Kind is "suspected", "refuted" or "confirmed".
	Kind string
	// Incarnation is the node's incarnation number after the event.
	Incarnation uint32
}

// ensureGossip lazily builds the detector over the commission order.
// Built on the first gossip-mode tick so the whole initial fleet forms
// one membership; nodes commissioned later join via Add.
func (c *Cluster) ensureGossip() *gossip.Group {
	if c.gossip != nil {
		return c.gossip
	}
	gc := gossip.DefaultConfig(c.cfg.Seed)
	gc.FailedAfter = c.cfg.FailedAfter
	if c.cfg.GossipFanout > 0 {
		gc.Fanout = c.cfg.GossipFanout
	}
	if c.cfg.GossipPiggyback > 0 {
		gc.Piggyback = c.cfg.GossipPiggyback
	}
	g, err := gossip.New(len(c.nodes), gc)
	if err != nil {
		// NewCluster validated every knob and the fleet is non-empty by
		// the first heartbeat.
		panic(fmt.Sprintf("fleet: gossip group: %v", err))
	}
	for i, n := range c.nodes {
		if n.state == Failed || n.state == Drained {
			g.MarkDead(i)
		}
	}
	c.gossip = g
	return g
}

// gossipHeartbeat runs one detector round at now and applies its
// events to the fleet state machine.
func (c *Cluster) gossipHeartbeat(now sim.Time) []Transition {
	before := len(c.transitions)
	g := c.ensureGossip()
	// The probe stage runs the tick's first probes up front; the
	// detector's own calls then apply them in its order. Tick makes the
	// calls Due lists, less the later slots of a member it confirmed
	// dead earlier in the tick — never a first slot, which is the one
	// that staged.
	due := g.Due(c.stage.list[:0])
	c.stage.list = due
	c.stageProbes(now, due)
	probed, k := 0, 0
	events := g.Tick(
		func(i int) bool {
			for ; due[k] != i; k++ {
				if k < len(c.stage.slots) && c.stage.slots[k].n != nil {
					panic(fmt.Sprintf("fleet: gossip tick skipped the staged probe of %s", c.nodes[due[k]].ID))
				}
			}
			probed++
			k++
			return c.probeAt(now, k-1, c.nodes[i])
		},
		// A peer's digest reflects data-plane liveness: a killed device
		// is dark on the LAN, a device with a corrupted command wire
		// still forwards traffic.
		func(i int) bool {
			n := c.nodes[i]
			return !n.killed && n.state != Failed && n.state != Drained
		},
	)
	c.hbTick++
	for _, ev := range events {
		n := c.nodes[ev.Member]
		kind := ev.Kind.String()
		c.gossipEvents = append(c.gossipEvents, GossipEvent{
			At: now, Node: n.ID, Kind: kind, Incarnation: ev.Incarnation,
		})
		if c.ctrl != nil {
			e := obs.Instant(obs.CatGossip, kind, now)
			e.K1, e.V1 = "node", n.ID
			e.K2, e.V2 = "incarnation", int64(ev.Incarnation)
			c.ctrl.Add(e)
		}
		if ev.Kind == gossip.Confirmed {
			c.failNode(now, n, fmt.Sprintf("gossip confirmed: %d consecutive missed probes", ev.Misses))
		}
	}
	if c.ctrl != nil {
		e := obs.Instant(obs.CatHeartbeat, "hb-sweep", now)
		e.K2, e.V2 = "probed", int64(probed)
		e.K3, e.V3 = "events", int64(len(events))
		c.ctrl.Add(e)
	}
	return c.transitions[before:]
}

// InjectGossipSuspicion plants a (possibly false) suspicion of a node
// into the detector — the protocol-level chaos hook the smoke scenario
// and refutation tests use. Reports whether the suspicion took (false
// when the node is already suspect or dead).
func (c *Cluster) InjectGossipSuspicion(id string) (bool, error) {
	n, err := c.Node(id)
	if err != nil {
		return false, err
	}
	if !c.cfg.GossipHealth {
		return false, fmt.Errorf("fleet: gossip health is disabled")
	}
	return c.ensureGossip().Suspect(n.index), nil
}

// GossipEvents returns the fleet-level protocol event log.
func (c *Cluster) GossipEvents() []GossipEvent {
	return append([]GossipEvent(nil), c.gossipEvents...)
}

// GossipStats reports the detector's cumulative counters (all zero
// while gossip health is off or idle).
func (c *Cluster) GossipStats() gossip.Stats {
	if c.gossip == nil {
		return gossip.Stats{}
	}
	return c.gossip.Stats()
}

// GossipDetectionBound reports the worst-case silent-failure detection
// latency under gossip health: (Period + SuspectAfter + FailedAfter +
// 1) heartbeat ticks, Period = ceil(N/fanout). The fleet5 storm test
// asserts every observed detection stays within it.
func (c *Cluster) GossipDetectionBound() sim.Time {
	return sim.Time(c.ensureGossip().Bound()) * c.cfg.Heartbeat
}
