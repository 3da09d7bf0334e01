package fleet

import (
	"fmt"

	"harmonia/internal/device"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The health monitor drives the per-device state machine
// healthy → degraded → failed → drained from two real signal paths:
// periodic heartbeats issued over the command interface (a StatsRead on
// the management block, the same path harmoniactl's `sensors` takes),
// and the latency-critical irq events (thermal alarm, link down) the
// modules raise past the command path.

// Transition records one state machine step. At is when the control
// plane decided the transition, so the log is monotonic in At;
// transitions with a physical completion later than the decision
// (draining waits out slot reconfiguration) carry it in CompletedAt.
type Transition struct {
	At     sim.Time
	Node   string
	From   State
	To     State
	Reason string
	// CompletedAt is when the transition's effect finished materializing
	// (0 when instantaneous). Never earlier than At.
	CompletedAt sim.Time
}

// String formats the transition for operator logs.
func (t Transition) String() string {
	if t.CompletedAt > t.At {
		return fmt.Sprintf("%v %s: %s -> %s (%s, completes %v)",
			t.At, t.Node, t.From, t.To, t.Reason, t.CompletedAt)
	}
	return fmt.Sprintf("%v %s: %s -> %s (%s)", t.At, t.Node, t.From, t.To, t.Reason)
}

// FailoverReport records the recovery from one device failure.
type FailoverReport struct {
	Node   string
	Reason string
	// DetectedAt is when the control plane declared the device failed.
	DetectedAt sim.Time
	// RecoveredAt is when the last re-placed replica's slot
	// reconfiguration completed on its new device.
	RecoveredAt sim.Time
	// Moved counts replicas evicted from the failed device; Replaced of
	// those found a new home; Unplaced could not be re-placed (capacity
	// exhausted) and stay pending for the next Place call.
	Moved, Replaced, Unplaced int
	// Migrated counts connection-table flows restored into replacement
	// replicas (0 with migration disabled or for stateless services).
	Migrated int
}

// Recovery reports the time from fault injection to full re-placement.
func (r FailoverReport) Recovery(faultAt sim.Time) sim.Time {
	if r.RecoveredAt <= faultAt {
		return 0
	}
	return r.RecoveredAt - faultAt
}

// Transitions returns the state machine log.
func (c *Cluster) Transitions() []Transition {
	return append([]Transition(nil), c.transitions...)
}

// Failovers returns every completed failover report.
func (c *Cluster) Failovers() []FailoverReport {
	return append([]FailoverReport(nil), c.failovers...)
}

// setState performs one transition; no-ops when the state is unchanged.
func (c *Cluster) setState(now sim.Time, n *Node, to State, reason string) {
	c.setStateDone(now, 0, n, to, reason)
}

// setStateDone performs one transition decided at now whose effect
// completes at completed (0 or <= now means instantaneous). Stamping
// decisions rather than completions keeps the Transitions log monotonic
// even when completion (slot reconfiguration) lands far in the future.
func (c *Cluster) setStateDone(now, completed sim.Time, n *Node, to State, reason string) {
	if n.state == to {
		return
	}
	if completed <= now {
		completed = 0
	}
	c.transitions = append(c.transitions, Transition{
		At: now, Node: n.ID, From: n.state, To: to, Reason: reason,
		CompletedAt: completed,
	})
	from := n.state
	n.state = to
	// Every health transition invalidates the dispatch views — even a
	// routability-preserving one (healthy↔degraded) changes the frozen
	// cost penalty the SoA view carries.
	c.router.bumpEpoch()
	c.router.noteState(n, from, to)
	// Keep the gossip detector's membership view in step: nodes dead to
	// the fleet stop being probed, revived nodes rejoin with a fresh
	// incarnation.
	if c.gossip != nil {
		switch {
		case to == Failed || to == Drained:
			c.gossip.MarkDead(n.index)
		case from == Failed || from == Drained:
			c.gossip.Reset(n.index)
		}
	}
	if c.ctrl != nil {
		e := obs.Instant(obs.CatHealth, string(from)+"->"+string(to), now)
		e.K1, e.V1 = "node", n.ID
		c.ctrl.Add(e)
	}
}

// onEvent consumes one irq-path notification from a device.
func (c *Cluster) onEvent(n *Node, ev device.Event) {
	if c.stage.on {
		c.stageEvent(n, ev)
		return
	}
	switch ev.Code {
	case device.EventThermalAlarm:
		if n.state == Healthy {
			c.setState(c.now, n, Degraded, fmt.Sprintf("thermal alarm %d milli-degC", ev.Data))
		}
	case device.EventLinkDown:
		c.failNode(c.now, n, "link down (irq)")
	}
}

// cohorts reports the effective heartbeat cohort count.
func (c *Cluster) cohorts() int {
	if c.cfg.HeartbeatCohorts > 1 {
		return c.cfg.HeartbeatCohorts
	}
	return 1
}

// Heartbeat runs one health monitor sweep at now: the due round-robin
// cohort of live devices is probed over the command path and the state
// machine advances on the results. With HeartbeatCohorts <= 1 every
// device is probed each sweep; with C cohorts each sweep probes ~N/C
// devices and a given device is probed every C-th sweep, so
// FailedAfter consecutive missed probes still declare it failed — at
// most FailedAfter*C sweeps after it went silent. It returns the
// transitions this sweep caused.
func (c *Cluster) Heartbeat(now sim.Time) []Transition {
	c.advance(now)
	// A heartbeat is a control-plane barrier: backlog mirrors, frozen
	// penalties (lastTemp moves below) and flow caches all go stale.
	c.router.bumpEpoch()
	c.router.mature(now)
	if c.cfg.GossipHealth {
		t := c.gossipHeartbeat(now)
		c.barrierTail(now)
		return t
	}
	before := len(c.transitions)
	cohortCount := c.cohorts()
	cohort := int(c.hbTick % int64(cohortCount))
	c.hbTick++
	probed := 0
	for i := 0; i < len(c.nodes); {
		// One segment of the sweep: the due live nodes up to the first
		// whose probe could fail it. That node's failover sends commands
		// to other nodes' devices, so it probes serially after the
		// segment's staged probes, and the next segment stages afresh.
		list, last := c.stage.list[:0], false
		for ; i < len(c.nodes) && !last; i++ {
			n := c.nodes[i]
			if (cohortCount > 1 && i%cohortCount != cohort) || n.state == Failed || n.state == Drained {
				continue
			}
			list = append(list, i)
			last = n.missed >= c.cfg.FailedAfter-1
		}
		c.stage.list = list
		staged := list
		if last {
			staged = list[:len(list)-1]
		}
		c.stageProbes(now, staged)
		for k, idx := range list {
			n := c.nodes[idx]
			probed++
			if !c.probeAt(now, k, n) && n.missed >= c.cfg.FailedAfter {
				c.failNode(now, n, fmt.Sprintf("%d consecutive missed heartbeats", n.missed))
			}
		}
	}
	if c.ctrl != nil {
		e := obs.Instant(obs.CatHeartbeat, "hb-sweep", now)
		e.K2, e.V2 = "cohort", int64(cohort)
		e.K3, e.V3 = "probed", int64(probed)
		c.ctrl.Add(e)
	}
	c.barrierTail(now)
	return c.transitions[before:]
}

// barrierTail is the serial end-of-barrier work both heartbeat paths
// share: failovers this sweep have already taken their grants, so
// whatever budget headroom remains goes to queued elective
// scale-outs; the rebalancer steps its move state machine; the rack
// tier refreshes its frozen digests; and the SLO engine folds the
// barrier's per-service deltas into its error-budget windows and runs
// the burn-rate alerter.
func (c *Cluster) barrierTail(now sim.Time) {
	c.drainElectives(now)
	c.stepRebalance(now)
	c.rackRefresh(now)
	c.stepSLO(now)
}

// RunMonitorUntil advances the periodic health monitor to cover
// (c.now, until]: every heartbeat due in the interval fires at its
// scheduled tick. The traffic loop interleaves this with dispatches.
func (c *Cluster) RunMonitorUntil(until sim.Time) {
	if c.nextHeartbeat == 0 {
		c.nextHeartbeat = c.cfg.Heartbeat
	}
	for c.nextHeartbeat <= until {
		c.Heartbeat(c.nextHeartbeat)
		c.nextHeartbeat += c.cfg.Heartbeat
	}
	c.advance(until)
}

// failNode declares a device failed, evicts its tenants, re-places them
// on surviving devices and leaves the device drained.
func (c *Cluster) failNode(now sim.Time, n *Node, reason string) {
	if n.state == Failed || n.state == Drained {
		return
	}
	c.setState(now, n, Failed, reason)
	rep := c.evacuate(now, n, reason, false)
	c.failovers = append(c.failovers, rep)
	// The drain decision is made now; re-placement completes when the
	// last replacement slot finishes reconfiguring, which can be far in
	// the future — stamping that time as At would run the log backwards.
	c.setStateDone(now, rep.RecoveredAt, n, Drained, "evacuated")
}

// DrainNode performs a planned evacuation of a live (typically
// degraded) device: tenants are evicted through the tenancy manager —
// the device is still answering commands — and re-placed elsewhere.
func (c *Cluster) DrainNode(now sim.Time, id string) (FailoverReport, error) {
	n, err := c.Node(id)
	if err != nil {
		return FailoverReport{}, err
	}
	if n.state == Failed || n.state == Drained {
		return FailoverReport{}, fmt.Errorf("fleet: node %s is already %s", id, n.state)
	}
	c.advance(now)
	rep := c.evacuate(c.now, n, "planned drain", true)
	c.failovers = append(c.failovers, rep)
	c.setStateDone(c.now, rep.RecoveredAt, n, Drained, "evacuated")
	return rep, nil
}

// replaceAttempts bounds how many candidate devices a re-placed
// replica tries before it is left unplaced (each failed candidate
// burned its bitstream-load retries first).
const replaceAttempts = 4

// evacuate moves every replica off a node. With evict set the node is
// alive and each slot is blanked through its tenancy manager; a dead
// node's slots are simply abandoned. Stateful replicas carry their
// connection tables: a live node's table is read out over the command
// path before eviction, a dead node's comes from the last periodic
// snapshot, and either replays into the replacement through TableWrite
// commands once it is admitted.
func (c *Cluster) evacuate(now sim.Time, n *Node, reason string, evict bool) FailoverReport {
	rep := FailoverReport{Node: n.ID, Reason: reason, DetectedAt: now, RecoveredAt: now}
	victims := n.Replicas()
	rep.Moved = len(victims)
	for _, r := range victims {
		flows, live, snapAt := c.flowsForMigration(n, r, evict)
		c.unbind(now, n, r, evict)
		// A candidate whose bitstream load fails every retry is struck
		// off and the replica falls back to the next-best device, up to
		// replaceAttempts candidates.
		var target *Node
		tried := map[string]bool{n.ID: true}
		for attempt := 0; attempt < replaceAttempts; attempt++ {
			cand := c.pickNode(r.svc, tried)
			if cand == nil {
				break
			}
			if err := c.admitLoad(now, now, cand, r, LoadFailover); err != nil {
				tried[cand.ID] = true
				continue
			}
			target = cand
			break
		}
		if target == nil {
			rep.Unplaced++
			continue
		}
		rep.Replaced++
		if r.ReadyAt > rep.RecoveredAt {
			rep.RecoveredAt = r.ReadyAt
		}
		if len(flows) > 0 && r.flows != nil {
			if err := c.writeFlowRows(target, flowTableID(r), flows, false); err == nil {
				mr := MigrationRecord{
					Replica: r.Name(), From: n.ID, To: target.ID, At: r.ReadyAt,
					Live:  live,
					Flows: len(flows), Restored: r.flows.restored, Dropped: r.flows.dropped,
					CutoverAt: r.ReadyAt,
				}
				if !live {
					mr.SnapshotAge = now - snapAt
				}
				c.migrations = append(c.migrations, mr)
				rep.Migrated += r.flows.restored
				if c.ctrl != nil {
					e := obs.Span(obs.CatMigration, "replay", now, r.ReadyAt)
					e.K1, e.V1 = "replica", r.Name()
					e.K2, e.V2 = "flows", int64(len(flows))
					e.K3, e.V3 = "restored", int64(r.flows.restored)
					c.ctrl.Add(e)
				}
			}
		}
	}
	if c.ctrl != nil {
		e := obs.Span(obs.CatHealth, "failover", now, rep.RecoveredAt)
		e.K1, e.V1 = "node", n.ID
		e.K2, e.V2 = "moved", int64(rep.Moved)
		e.K3, e.V3 = "replaced", int64(rep.Replaced)
		c.ctrl.Add(e)
	}
	return rep
}
