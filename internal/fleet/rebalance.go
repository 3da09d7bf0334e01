package fleet

import (
	"fmt"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/device"
	"harmonia/internal/faults"
	"harmonia/internal/obs"
	"harmonia/internal/sim"
	"harmonia/internal/tenancy"
)

// The background rebalancer reclaims the fragmentation that accumulates
// under churn: evictions retire host-queue ranges the allocator never
// recycles (tenancy.go), so a long-lived node strands queues until its
// slots outlive its queue horizon. At heartbeat barriers the rebalancer
// scores the fleet, picks the worst-fragmented node and drains it
// through crash-safe live moves — pre-copy the connection table over
// the command path, replay the dirty delta accumulated during the
// target's slot reconfiguration, then cut routing over at a barrier —
// and finally rebuilds the empty node's queue allocator, returning the
// stranded ranges.
//
// Every move is a state machine planned → pre-copy → delta-replay →
// cutover → done | aborted. Each phase carries a deadline and bounded
// retries with exponential backoff; any unrecoverable failure aborts
// the move back to the still-serving source with zero flow disruption
// (the source is never detached before cutover). Moves take the
// PR-load budget as elective class, so concurrent failovers always
// preempt them. All decisions run on the serial barrier path —
// results are byte-identical across worker and quantum settings.

// Rebalancer cadence and bounds.
const (
	// rebalanceEvery is the planning cadence in heartbeat barriers.
	// Active moves still step every barrier.
	rebalanceEvery = 8
	// rebalanceRetries bounds failed attempts per move phase before the
	// move aborts.
	rebalanceRetries = 2
)

// rebalanceTimeout bounds each move phase: a phase outliving it aborts
// the move back to the still-serving source.
func (c *Cluster) rebalanceTimeout() sim.Time { return 4 * c.cfg.ReconfigTime }

// rebalanceBackoff delays a phase retry, doubling per attempt.
func (c *Cluster) rebalanceBackoff() sim.Time { return 2 * c.cfg.Heartbeat }

// movePhase is a rebalance move's position in its state machine.
type movePhase string

const (
	movePlanned movePhase = "planned"
	movePreCopy movePhase = "pre-copy"
	moveDelta   movePhase = "delta-replay"
	moveDone    movePhase = "done"
	moveAborted movePhase = "aborted"
)

// rebalanceMove is one replica's crash-safe migration off the rebuild
// victim. The source keeps serving until cutover, so aborting at any
// phase loses nothing.
type rebalanceMove struct {
	r     *Replica
	src   *Node
	dst   *Node
	phase movePhase
	// reqAt is the plan time — the budget request time of the move's
	// elective grant, which is what makes failover preemption provable
	// from the grant log.
	reqAt sim.Time
	// phaseAt is when the current phase was entered (slid forward while
	// a planned move waits on budget headroom: that wait is preemption
	// working, not phase time).
	phaseAt sim.Time
	// attempts counts failed tries in the current phase; nextTry gates
	// the next one (exponential backoff). retries accumulates across
	// phases for the record.
	attempts int
	nextTry  sim.Time
	retries  int

	// shadow is the target-side tenant admitted for the move; dstFlows
	// the connection table building on the target. Both exist from the
	// end of the planned phase.
	shadow   *tenancy.Tenant
	dstFlows *flowState

	preCopy            []apps.ConnEntry
	preCopyAt, deltaAt sim.Time
	deltaRows          int
	restored, dropped  int
}

// rebalancer is the cluster's barrier-stepped rebalance state.
type rebalancer struct {
	enabled bool
	tick    int64
	victim  *Node
	moves   []*rebalanceMove
	// latches are armed one-shot migration faults, consumed when a move
	// reaches the matching phase (ArmMigrationFault).
	latches map[faults.Kind]int

	movesPlanned, movesDone, movesAborted int
	retries                               int
	rebuilds, queuesReclaimed             int
}

// RebalanceStats reports the rebalancer's cumulative move and rebuild
// counters.
type RebalanceStats struct {
	MovesPlanned, MovesDone, MovesAborted int
	// Retries counts failed phase attempts that were retried (aborts
	// exclude the final, non-retried failure).
	Retries int
	// Rebuilds counts completed drain-and-rebuild cycles;
	// QueuesReclaimed the stranded host queues they returned.
	Rebuilds, QueuesReclaimed int
}

// RebalanceStats returns the rebalancer's counters (zero before the
// first enable).
func (c *Cluster) RebalanceStats() RebalanceStats {
	rb := c.rebalance
	if rb == nil {
		return RebalanceStats{}
	}
	return RebalanceStats{
		MovesPlanned: rb.movesPlanned, MovesDone: rb.movesDone,
		MovesAborted: rb.movesAborted, Retries: rb.retries,
		Rebuilds: rb.rebuilds, QueuesReclaimed: rb.queuesReclaimed,
	}
}

// SetRebalance toggles the background rebalancer at runtime. Disabling
// freezes in-flight moves in place (their sources keep serving); a
// re-enable resumes them.
func (c *Cluster) SetRebalance(on bool) {
	if c.rebalance == nil {
		c.rebalance = &rebalancer{latches: make(map[faults.Kind]int)}
	}
	c.rebalance.enabled = on
}

// ArmMigrationFault latches one migration-targeted chaos injection:
// the next move to reach the fault's phase consumes it. Arming the
// same kind repeatedly stacks.
func (c *Cluster) ArmMigrationFault(kind faults.Kind) error {
	switch kind {
	case faults.RebalanceKillSource, faults.RebalanceKillTarget,
		faults.RebalanceCorruptDelta, faults.RebalanceStallRead:
	default:
		return fmt.Errorf("fleet: %q is not a migration fault", kind)
	}
	if c.rebalance == nil {
		c.rebalance = &rebalancer{latches: make(map[faults.Kind]int)}
	}
	c.rebalance.latches[kind]++
	return nil
}

// consumeMigrationFault fires one armed latch of the kind, tracing the
// applied fault like a scheduled chaos injection.
func (c *Cluster) consumeMigrationFault(kind faults.Kind, mv *rebalanceMove) bool {
	rb := c.rebalance
	if rb == nil || rb.latches[kind] == 0 {
		return false
	}
	rb.latches[kind]--
	node := mv.src.ID
	if kind == faults.RebalanceKillTarget && mv.dst != nil {
		node = mv.dst.ID
	}
	c.traceFault(string(kind), node, 0)
	return true
}

// pendingRebalanceMoves counts moves still waiting on budget headroom —
// the elective demand a concurrent failover grant preempts
// (placement.go: loadSlot).
func (c *Cluster) pendingRebalanceMoves() int {
	if c.rebalance == nil {
		return 0
	}
	n := 0
	for _, mv := range c.rebalance.moves {
		if mv.phase == movePlanned {
			n++
		}
	}
	return n
}

// stepRebalance runs the rebalancer for one heartbeat barrier: victim
// lifecycle and planning first, then every active move steps its state
// machine. Runs on the serial control-plane path only.
func (c *Cluster) stepRebalance(now sim.Time) {
	rb := c.rebalance
	if rb == nil || !rb.enabled {
		return
	}
	rb.tick++
	due := rb.tick%rebalanceEvery == 0
	switch {
	case rb.victim == nil:
		if due {
			c.planRebalance(now)
		}
	case len(rb.moves) == 0:
		v := rb.victim
		switch {
		case v.state == Failed || v.state == Drained:
			// The victim died mid-drain: failover owns its replicas and
			// its stranded queues wait for revive and a later cycle.
			v.rebuilding = false
			rb.victim = nil
		case len(v.replicas) == 0:
			c.finishRebuild(now, v)
		case due:
			// Every move aborted but the victim still serves: replan its
			// remaining replicas.
			c.planMoves(now, v)
		}
	}
	if len(rb.moves) == 0 {
		return
	}
	keep := rb.moves[:0]
	for _, mv := range rb.moves {
		c.stepMove(now, mv)
		if mv.phase != moveDone && mv.phase != moveAborted {
			keep = append(keep, mv)
		}
	}
	for i := len(keep); i < len(rb.moves); i++ {
		rb.moves[i] = nil
	}
	rb.moves = keep
}

// planRebalance picks the rebuild victim — the healthy node stranding
// the most queues (lowest commission order breaks ties) — and plans a
// move for each of its replicas.
func (c *Cluster) planRebalance(now sim.Time) {
	rb := c.rebalance
	var victim *Node
	worst := 0
	for _, n := range c.nodes {
		if n.state != Healthy || n.Tenants == nil || n.rebuilding {
			continue
		}
		if s := n.Tenants.QueuesRetired(); s > worst {
			victim, worst = n, s
		}
	}
	if victim == nil {
		return
	}
	rb.victim = victim
	victim.rebuilding = true
	if c.ctrl != nil {
		e := obs.Instant(obs.CatRebalance, "plan", now)
		e.K1, e.V1 = "node", victim.ID
		e.K2, e.V2 = "stranded", int64(worst)
		e.K3, e.V3 = "replicas", int64(len(victim.replicas))
		c.ctrl.Add(e)
	}
	c.planMoves(now, victim)
}

// planMoves creates one planned move per victim replica. All moves
// share the plan time as their budget request time, so the grant log
// shows exactly how long each waited behind failovers.
func (c *Cluster) planMoves(now sim.Time, v *Node) {
	rb := c.rebalance
	for _, r := range v.Replicas() {
		mv := &rebalanceMove{r: r, src: v, phase: movePlanned, reqAt: now, phaseAt: now}
		rb.moves = append(rb.moves, mv)
		rb.movesPlanned++
		if c.ctrl != nil {
			e := obs.Instant(obs.CatRebalance, "planned", now)
			e.K1, e.V1 = "replica", r.Name()
			c.ctrl.Add(e)
		}
	}
}

// stepMove advances one move at a barrier. A move can cross several
// phases in one step (grant, pre-copy, and — once the drain window
// ends — delta-replay and cutover all happen at barriers).
func (c *Cluster) stepMove(now sim.Time, mv *rebalanceMove) {
	if mv.r.node != mv.src {
		// A failover re-homed the replica mid-move; the snapshot-fallback
		// path owns its recovery.
		c.abortMove(now, mv, "replica re-homed by failover")
		return
	}
	if mv.src.state == Failed || mv.src.state == Drained {
		c.abortMove(now, mv, "source "+string(mv.src.state))
		return
	}
	if mv.dst != nil && (mv.dst.state == Failed || mv.dst.state == Drained) {
		c.abortMove(now, mv, "target "+string(mv.dst.state))
		return
	}
	if now > mv.phaseAt+c.rebalanceTimeout() {
		c.abortMove(now, mv, string(mv.phase)+" deadline exceeded")
		return
	}
	if now < mv.nextTry {
		return
	}
	switch mv.phase {
	case movePlanned:
		c.stepPlanned(now, mv)
	case movePreCopy:
		c.stepPreCopy(now, mv)
	case moveDelta:
		c.stepDelta(now, mv)
	}
}

// failMoveAttempt burns one retry of the current phase, aborting once
// the bound is reached.
func (c *Cluster) failMoveAttempt(now sim.Time, mv *rebalanceMove, reason string) {
	mv.attempts++
	if mv.attempts > rebalanceRetries {
		c.abortMove(now, mv, reason+" (retries exhausted)")
		return
	}
	c.rebalance.retries++
	mv.retries++
	mv.nextTry = now + c.rebalanceBackoff()<<(mv.attempts-1)
	if c.ctrl != nil {
		e := obs.Instant(obs.CatRebalance, "retry", now)
		e.K1, e.V1 = "reason", reason
		e.K2, e.V2 = "attempt", int64(mv.attempts)
		c.ctrl.Add(e)
	}
}

// stepPlanned takes the move's elective budget grant and admits the
// shadow tenant on the chosen target. Each attempt is self-contained;
// nothing persists across a failed one.
func (c *Cluster) stepPlanned(now sim.Time, mv *rebalanceMove) {
	if !c.budget.free(now) {
		// Failovers (and electives queued ahead) hold the budget; waiting
		// here is the preemption contract, not phase time.
		mv.phaseAt = now
		return
	}
	r := mv.r
	dst := c.pickNode(r.svc, map[string]bool{mv.src.ID: true})
	if dst == nil {
		c.failMoveAttempt(now, mv, "no placement candidate")
		return
	}
	t, err := c.loadSlot(mv.reqAt, now, dst, r, LoadElective)
	if err != nil {
		c.failMoveAttempt(now, mv, "shadow admit failed")
		return
	}
	mv.dst, mv.shadow = dst, t
	// Bind a fresh connection table for the shadow on the target's role
	// module: pre-copy and delta rows land there, and it becomes the
	// replica's table at cutover.
	if r.svc.Stateful {
		mv.dstFlows = newFlowState(c, r.svc)
		bindFlowTable(dst, mv.shadowTableID(), mv.dstFlows)
	}
	mv.phase = movePreCopy
	mv.phaseAt = now
	mv.attempts, mv.nextTry = 0, 0
	c.stepPreCopy(now, mv)
}

// stepPreCopy reads the source's live connection table, arms the dirty
// log, and streams the capture into the shadow table. The drain window
// (the shadow slot's reconfiguration) follows; pins made during it
// accumulate in the dirty log.
func (c *Cluster) stepPreCopy(now sim.Time, mv *rebalanceMove) {
	r := mv.r
	if c.consumeMigrationFault(faults.RebalanceKillSource, mv) {
		_ = c.Kill(mv.src.ID)
	}
	if r.flows != nil {
		if c.consumeMigrationFault(faults.RebalanceStallRead, mv) {
			c.failMoveAttempt(now, mv, "table read stalled past deadline")
			return
		}
		entries, err := c.readFlowSnapshot(mv.src, r, nil)
		if err != nil {
			c.failMoveAttempt(now, mv, "pre-copy read failed")
			return
		}
		// Arm before any further pin can happen (no packets run between
		// barrier steps): rows mutated after this capture are the delta.
		r.flows.dirty = r.flows.dirty[:0]
		r.flows.dirtyArmed = true
		mv.preCopy = entries
		if len(entries) > 0 {
			if err := c.writeFlowRows(mv.dst, mv.shadowTableID(), entries, false); err != nil {
				r.flows.dirtyArmed = false
				c.failMoveAttempt(now, mv, "pre-copy stream failed")
				return
			}
			mv.restored, mv.dropped = mv.dstFlows.restored, mv.dstFlows.dropped
		}
	}
	mv.preCopyAt = now
	mv.phase = moveDelta
	mv.phaseAt = now
	mv.attempts, mv.nextTry = 0, 0
}

// stepDelta waits out the drain window, replays the dirty log into the
// shadow table and cuts over — all at one barrier, so no packet can
// run between the delta freeze and the routing flip: the target table
// equals the source table exactly, and disruption is zero.
func (c *Cluster) stepDelta(now sim.Time, mv *rebalanceMove) {
	if now < mv.shadow.ReadyAt {
		return
	}
	if c.consumeMigrationFault(faults.RebalanceKillTarget, mv) {
		_ = c.Kill(mv.dst.ID)
	}
	r := mv.r
	if r.flows != nil {
		corrupt := c.consumeMigrationFault(faults.RebalanceCorruptDelta, mv)
		delta := r.flows.dirty
		if len(delta) > 0 || corrupt {
			if err := c.writeFlowRows(mv.dst, mv.shadowTableID(), delta, corrupt); err != nil {
				// The dirty log keeps accumulating; the retry replays the
				// grown delta from row 0 (imports are idempotent merges).
				c.failMoveAttempt(now, mv, "delta frame rejected")
				return
			}
			mv.restored += mv.dstFlows.restored
			mv.dropped += mv.dstFlows.dropped
		}
		mv.deltaRows = len(delta)
	}
	mv.deltaAt = now
	c.cutoverMove(now, mv)
}

// cutoverMove flips the replica from source to target at the barrier:
// the source slot blanks (retiring its queue range — reclaimed when
// the victim rebuilds) and the replica binds to the shadow tenant and
// its pre-filled table. The routing index re-admits it immediately:
// the shadow slot finished reconfiguring during the drain window.
func (c *Cluster) cutoverMove(now sim.Time, mv *rebalanceMove) {
	r, src, dst := mv.r, mv.src, mv.dst
	if r.flows != nil {
		r.flows.dirtyArmed = false
		r.flows.dirty = nil
	}
	c.unbind(now, src, r, true)
	c.bind(now, dst, r, mv.shadow, mv.dstFlows)
	mv.phase = moveDone
	c.rebalance.movesDone++
	c.migrations = append(c.migrations, MigrationRecord{
		Replica: r.Name(), From: src.ID, To: dst.ID, At: now, Live: true,
		Flows: len(mv.preCopy) + mv.deltaRows, Restored: mv.restored, Dropped: mv.dropped,
		PlannedAt: mv.reqAt, PreCopyAt: mv.preCopyAt, DeltaAt: mv.deltaAt, CutoverAt: now,
		PreCopyRows: len(mv.preCopy), DeltaRows: mv.deltaRows, Retries: mv.retries,
	})
	c.traceMoveDone(now, mv)
}

// abortMove rolls the move back to the still-serving source: disarm
// the dirty log, withdraw the shadow tenant and record the abort. The
// source was never detached, so no flow is disrupted.
func (c *Cluster) abortMove(now sim.Time, mv *rebalanceMove, reason string) {
	r := mv.r
	if r.node == mv.src && r.flows != nil {
		r.flows.dirtyArmed = false
		r.flows.dirty = nil
	}
	if mv.shadow != nil {
		if mv.dstFlows != nil {
			bindFlowTable(mv.dst, mv.shadowTableID(), nil)
		}
		// Pure control-plane bookkeeping, so it is safe on a dead target
		// too (a revive would blank the slot anyway).
		_, _ = mv.dst.Tenants.Evict(now, mv.shadow.ID)
	}
	mv.phase = moveAborted
	c.rebalance.movesAborted++
	to := ""
	if mv.dst != nil {
		to = mv.dst.ID
	}
	c.migrations = append(c.migrations, MigrationRecord{
		Replica: r.Name(), From: mv.src.ID, To: to, At: now, Live: true,
		PlannedAt: mv.reqAt, PreCopyAt: mv.preCopyAt,
		PreCopyRows: len(mv.preCopy), Retries: mv.retries, Aborted: true,
	})
	if c.ctrl == nil {
		return
	}
	e := obs.Instant(obs.CatRebalance, "abort", now)
	e.K1, e.V1 = "reason", reason
	e.K2, e.V2 = "retries", int64(mv.retries)
	c.ctrl.Add(e)
	span := obs.Span(obs.CatRebalance, "move", mv.reqAt, now)
	span.K1, span.V1 = "replica", r.Name()
	span.K3, span.V3 = "aborted", 1
	c.ctrl.Add(span)
}

// traceMoveDone emits a completed move's phase spans and instants on
// the control track, all at cutover so event order is deterministic.
func (c *Cluster) traceMoveDone(now sim.Time, mv *rebalanceMove) {
	if c.ctrl == nil {
		return
	}
	span := obs.Span(obs.CatRebalance, "move", mv.reqAt, now)
	span.K1, span.V1 = "replica", mv.r.Name()
	span.K2, span.V2 = "rows", int64(len(mv.preCopy)+mv.deltaRows)
	span.K3, span.V3 = "retries", int64(mv.retries)
	c.ctrl.Add(span)
	pre := obs.Span(obs.CatRebalance, "pre-copy", mv.preCopyAt, mv.deltaAt)
	pre.K1, pre.V1 = "replica", mv.r.Name()
	pre.K2, pre.V2 = "rows", int64(len(mv.preCopy))
	c.ctrl.Add(pre)
	d := obs.Instant(obs.CatRebalance, "delta-replay", mv.deltaAt)
	d.K1, d.V1 = "replica", mv.r.Name()
	d.K2, d.V2 = "rows", int64(mv.deltaRows)
	c.ctrl.Add(d)
	cut := obs.Instant(obs.CatRebalance, "cutover", now)
	cut.K1, cut.V1 = "replica", mv.r.Name()
	c.ctrl.Add(cut)
}

// shadowTableID is the shadow tenant's table ID on the target's role
// module.
func (mv *rebalanceMove) shadowTableID() uint32 {
	return FlowTableBase | uint32(mv.shadow.ID)
}

// writeFlowRows streams a framed connection-table snapshot into an
// arbitrary table ID on a node's role module. With corrupt set the
// frame header word is tampered, which the import rejects — the
// delta-corruption chaos injection.
func (c *Cluster) writeFlowRows(n *Node, tid uint32, entries []apps.ConnEntry, corrupt bool) error {
	words := apps.EncodeFlowSnapshot(entries)
	if corrupt && len(words) > 0 {
		words = append([]uint32(nil), words...)
		words[0] ^= 0xDEADBEEF
	}
	for i, row := range cmdif.SplitRows(words) {
		if err := n.Inst.WriteTable(device.RBBRole, 0, tid, uint32(i), row...); err != nil {
			return err
		}
	}
	return nil
}

// finishRebuild rebuilds a fully drained victim's queue allocator,
// reclaiming every retired range, and returns the node to the
// placement pool.
func (c *Cluster) finishRebuild(now sim.Time, v *Node) {
	rb := c.rebalance
	reclaimed := 0
	if v.Tenants != nil {
		if got, err := v.Tenants.Rebuild(); err == nil {
			reclaimed = got
		}
	}
	v.rebuilding = false
	rb.victim = nil
	rb.rebuilds++
	rb.queuesReclaimed += reclaimed
	if c.ctrl != nil {
		e := obs.Instant(obs.CatRebalance, "rebuild", now)
		e.K1, e.V1 = "node", v.ID
		e.K2, e.V2 = "reclaimed", int64(reclaimed)
		c.ctrl.Add(e)
	}
}

// FragmentationStats scores the fleet's placement fragmentation at a
// barrier. Score is the weighted composite the rebalancer minimizes.
type FragmentationStats struct {
	// Score is 0.6×QueueFrag + 0.2×SlotImbalance + 0.2×Drift, each term
	// in [0,1]; queue fragmentation dominates because it is the only
	// term that permanently erodes capacity.
	Score float64
	// StrandedQueues counts host queues retired by past evictions and
	// not yet reclaimed, fleet-wide.
	StrandedQueues int
	// QueueFrag is stranded queues over the queue horizon the fleet's
	// slots can ever address (slots × queuesPerTenant, summed).
	QueueFrag float64
	// SlotImbalance is the mean absolute deviation of per-node slot
	// occupancy across serving nodes.
	SlotImbalance float64
	// Drift is the anti-affinity surplus: replicas stacked beyond a
	// service's even spread, over placed replicas.
	Drift float64
}

// Fragmentation computes the fleet's current fragmentation score. Pure
// read; safe at any barrier.
func (c *Cluster) Fragmentation() FragmentationStats {
	var fs FragmentationStats
	horizon := 0
	var occs []float64
	for _, n := range c.nodes {
		if n.Tenants == nil {
			continue
		}
		fs.StrandedQueues += n.Tenants.QueuesRetired()
		horizon += n.slots * queuesPerTenant
		if n.state == Healthy || n.state == Degraded {
			occs = append(occs, float64(n.slots-n.Tenants.FreeSlots())/float64(n.slots))
		}
	}
	if horizon > 0 {
		fs.QueueFrag = float64(fs.StrandedQueues) / float64(horizon)
		if fs.QueueFrag > 1 {
			fs.QueueFrag = 1
		}
	}
	if len(occs) > 0 {
		mean := 0.0
		for _, o := range occs {
			mean += o
		}
		mean /= float64(len(occs))
		mad := 0.0
		for _, o := range occs {
			d := o - mean
			if d < 0 {
				d = -d
			}
			mad += d
		}
		fs.SlotImbalance = mad / float64(len(occs))
	}
	placedTotal, surplus := 0, 0
	for _, svc := range c.svcOrder {
		eligible, placed := 0, 0
		for _, n := range c.nodes {
			if n.state == Healthy && n.Tenants != nil && n.fits[svc.idx] {
				eligible++
			}
			placed += n.svcCounts[svc.idx]
		}
		if eligible == 0 || placed == 0 {
			continue
		}
		ideal := (placed + eligible - 1) / eligible
		for _, n := range c.nodes {
			if cnt := n.svcCounts[svc.idx]; cnt > ideal {
				surplus += cnt - ideal
			}
		}
		placedTotal += placed
	}
	if placedTotal > 0 {
		fs.Drift = float64(surplus) / float64(placedTotal)
	}
	fs.Score = 0.6*fs.QueueFrag + 0.2*fs.SlotImbalance + 0.2*fs.Drift
	return fs
}
