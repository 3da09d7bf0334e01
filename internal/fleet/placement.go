package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/tenancy"
)

// The placement scheduler bin-packs replicas onto devices using the
// structural resource model: a candidate must have a free tenancy slot
// whose budget fits the replica's logic (after URAM folding for the
// chip), carry the peripherals the service demands, and meet its PCIe
// generation floor. Among candidates, replicas of the same service
// spread across devices (anti-affinity keeps a single device failure
// from taking out a whole service) while otherwise preferring the
// fullest device (best-fit bin-packing maximizes slot co-residency).

// canHost reports whether a node can take one replica of the service
// right now. Retired queue ranges are never recycled, so a node can
// exhaust its hardware queues while slots are still free — exactly the
// fragmentation the rebalancer reclaims. The static fit is held per
// service in n.fits; only the health state and free-slot checks are
// evaluated live. The scan builds no error values: the one caller that
// reports a failure (Place) formats its own.
func (n *Node) canHost(svc *service) bool {
	return n.state == Healthy && !n.rebuilding && n.Tenants != nil &&
		n.Tenants.FreeSlots() > 0 && n.Tenants.CanAllocate() && n.fits[svc.idx]
}

// staticFit reports the placement checks that never change after
// commission: the node's platform hosts the service, and one replica's
// logic, URAM folded for the chip, fits the slot budget. Commission and
// AddService record it in n.fits.
func (n *Node) staticFit(svc *service) bool {
	logic := foldURAM(svc.Logic, n.Platform.Chip.Capacity.URAM > 0)
	return platformHosts(n.Platform, &svc.Service) && logic.Utilization(n.slotRes) <= 1
}

// platformHosts reports whether a device model can host a service: its
// peripherals satisfy the service's demands (after adaptation) and its
// PCIe generation meets the service's floor. Commissioning picks models
// with it (compatiblePlatforms) and placement checks nodes with it.
func platformHosts(dev *platform.Device, svc *Service) bool {
	if _, err := adaptDemands(dev, svc.Demands); err != nil {
		return false
	}
	p, ok := dev.PCIe()
	return svc.MinPCIeGen <= 0 || ok && p.PCIeGen >= svc.MinPCIeGen
}

// pickNode selects the placement target for one replica, or nil. The
// selection order — anti-affinity (fewest replicas of this service),
// then best-fit (fewest free slots, packing the fullest device), then
// node ID — is a total order, so the single min-scan below picks the
// same node the previous sort-and-take-first implementation did while
// keeping placement O(N) per replica instead of O(N log N).
func (c *Cluster) pickNode(svc *service, exclude map[string]bool) *Node {
	var best *Node
	var bestSvc, bestFree int
	for _, n := range c.nodes {
		if exclude[n.ID] || !n.canHost(svc) {
			continue
		}
		sc, free := n.svcCounts[svc.idx], n.Tenants.FreeSlots()
		if best == nil {
			best, bestSvc, bestFree = n, sc, free
			continue
		}
		switch {
		case sc != bestSvc:
			if sc < bestSvc {
				best, bestSvc, bestFree = n, sc, free
			}
		case free != bestFree:
			if free < bestFree {
				best, bestSvc, bestFree = n, sc, free
			}
		case n.ID < best.ID:
			best, bestSvc, bestFree = n, sc, free
		}
	}
	return best
}

// admitLoad places one replica on a node through the node's tenancy
// manager (see loadSlot) and binds it there with a fresh connection
// table (stateful services).
func (c *Cluster) admitLoad(reqAt, now sim.Time, n *Node, r *Replica, class LoadClass) error {
	t, err := c.loadSlot(reqAt, now, n, r, class)
	if err != nil {
		return err
	}
	var flows *flowState
	if r.svc.Stateful {
		flows = newFlowState(c, r.svc)
	}
	c.bind(now, n, r, t, flows)
	return nil
}

// bind homes a replica on node n as tenant t: the one way a replica
// joins a node. The replica takes the tenant's ID and ready time, the
// node's replica set and per-service tally take the replica, a
// connection table (nil for stateless services) binds to the node's
// role module, and the routing index admits it.
func (c *Cluster) bind(now sim.Time, n *Node, r *Replica, t *tenancy.Tenant, flows *flowState) {
	r.Node, r.node, r.Tenant, r.ReadyAt = n.ID, n, t.ID, t.ReadyAt
	n.replicas[r.Name()] = r
	n.svcCounts[r.svc.idx]++
	if flows != nil && bindFlowTable(n, flowTableID(r), flows) {
		n.addStateful(r)
		r.flows = flows
	}
	c.router.noteAdmit(r, now)
}

// unbind takes a replica off node n: the one way a replica leaves a
// node, undoing bind. Its connection table unbinds (the replica keeps
// the table until its next bind), the slot blanks when evict is set and
// the node can still execute evictions, and the routing index, replica
// set and tally drop it.
func (c *Cluster) unbind(now sim.Time, n *Node, r *Replica, evict bool) {
	if i, ok := n.statefulIndex(r); ok {
		bindFlowTable(n, flowTableID(r), nil)
		n.stateful = slices.Delete(n.stateful, i, i+1)
	}
	if evict && n.Tenants != nil {
		// Blank the slot; co-resident tenants keep running.
		_, _ = n.Tenants.Evict(now, r.Tenant)
	}
	c.router.noteRemove(r, n)
	delete(n.replicas, r.Name())
	n.svcCounts[r.svc.idx]--
	r.Node, r.node, r.Tenant, r.ReadyAt = "", nil, 0, 0
}

// loadSlot is the one PR-load grant path: it admits r's tenant on n,
// partially reconfiguring a slot. The fleet-wide reconfiguration
// budget gates the bitstream load — past the cap the load queues
// behind the earliest in-flight completion, so its slot
// reconfiguration (and the tenant's ReadyAt) starts later. reqAt is
// when the load was first requested (earlier than now for elective
// loads drained from the queue); class is the budget priority class. A
// failover grant issued while electives wait is a preemption: the
// failover chains only behind in-flight loads, never behind the queue.
// Every grant, failed ones included, lands in the budget log and on
// the control track.
func (c *Cluster) loadSlot(reqAt, now sim.Time, n *Node, r *Replica, class LoadClass) (*tenancy.Tenant, error) {
	logic := foldURAM(r.svc.Logic, n.Platform.Chip.Capacity.URAM > 0)
	start := c.budget.acquire(now)
	if class == LoadFailover && c.budget.limit > 0 &&
		(len(c.electives) > 0 || c.pendingRebalanceMoves() > 0) {
		c.budget.preempted++
	}
	t, err := n.Tenants.Admit(start, r.Name(), logic, []net.IPAddr{r.VIP})
	done := start
	var le *tenancy.LoadError
	switch {
	case err == nil:
		done = t.ReadyAt
	case errors.As(err, &le):
		// The failed loads still held bitstream bandwidth.
		done = le.BusyUntil
	}
	c.budget.commit(reqAt, start, done, n.ID, class, err == nil)
	c.tracePRLoad(reqAt, start, done, n.ID, err == nil)
	return t, err
}

// tracePRLoad records one PR-load span on the control track: request
// at reqAt, budget grant at start (later when queued), slot ready at
// done. Failed loads carry ok=0.
func (c *Cluster) tracePRLoad(reqAt, start, done sim.Time, node string, ok bool) {
	if c.ctrl == nil {
		return
	}
	e := obs.Span(obs.CatPRLoad, "pr-load", reqAt, done)
	e.K1, e.V1 = "node", node
	e.K2, e.V2 = "queued_ps", int64(start-reqAt)
	if ok {
		e.K3, e.V3 = "ok", 1
	} else {
		e.K3, e.V3 = "ok", 0
	}
	c.ctrl.Add(e)
}

// Place materializes the replicas of every service registered since the
// last call and schedules all unplaced ones. It is incremental: services
// or devices added later are covered by the next call. Placement
// failures abort with the scheduler's reason.
func (c *Cluster) Place(now sim.Time) ([]*Replica, error) {
	c.advance(now)
	// Materialize replicas for newly registered services, once each: a
	// materialized service's replicas only grow through ScaleService,
	// which creates each one it adds. Before that, ScaleService may
	// already have created the indices past the registered count.
	for _, svc := range c.svcOrder {
		if svc.materialized {
			continue
		}
		svc.materialized = true
		scaled := 0
		for _, r := range c.replicas {
			if r.svc == svc {
				scaled++
			}
		}
		for i := range svc.Replicas - scaled {
			c.replicas = append(c.replicas, newReplica(svc, i))
		}
	}
	// Schedule unplaced replicas, largest slot-utilization first
	// (decreasing best-fit), name as the deterministic tie-break.
	// Replicas waiting on the elective queue are not eligible: they
	// start only when the budget has free headroom at a barrier.
	var pending []*Replica
	for _, r := range c.replicas {
		if r.Node == "" && !r.elective {
			pending = append(pending, r)
		}
	}
	util := func(r *Replica) float64 { return r.svc.Logic.Utilization(c.cfg.SlotRes) }
	sort.Slice(pending, func(i, j int) bool {
		if ui, uj := util(pending[i]), util(pending[j]); ui != uj {
			return ui > uj
		}
		return pending[i].Name() < pending[j].Name()
	})
	var placed []*Replica
	for _, r := range pending {
		n := c.pickNode(r.svc, nil)
		if n == nil {
			return placed, fmt.Errorf("fleet: no device can host %s", r.Name())
		}
		if err := c.admitLoad(c.now, c.now, n, r, LoadElective); err != nil {
			return placed, err
		}
		placed = append(placed, r)
	}
	return placed, nil
}

// electiveEntry is one scale-out replica waiting for free budget
// headroom, remembering when the expansion was requested.
type electiveEntry struct {
	r     *Replica
	reqAt sim.Time
}

// ScaleService grows a registered service by extra replicas as
// elective loads: the new replicas join the elective queue and are
// admitted at control-plane barriers only while the reconfiguration
// budget has a free slot, so they never delay failover re-placements
// (which chain straight behind in-flight loads, preempting the queue).
func (c *Cluster) ScaleService(now sim.Time, name string, extra int) error {
	c.advance(now)
	svc, ok := c.services[name]
	if !ok {
		return fmt.Errorf("fleet: unknown service %q", name)
	}
	base := svc.Replicas
	svc.Replicas += extra
	for i := 0; i < extra; i++ {
		r := newReplica(svc, base+i)
		r.elective = true
		c.replicas = append(c.replicas, r)
		c.electives = append(c.electives, electiveEntry{r: r, reqAt: now})
	}
	c.drainElectives(now)
	return nil
}

// drainElectives admits queued elective replicas into free budget
// headroom, oldest first. It runs on the serial control-plane path at
// every heartbeat barrier (and when the queue grows). Entries whose
// admission fails structurally (no candidate node) stay queued; a
// PR-load failure consumes the attempt and requeues at the tail, after
// which the drain stops for this barrier — the budget slot the failed
// load burned is real, and retrying the same node in a tight loop
// would spin.
func (c *Cluster) drainElectives(now sim.Time) {
	for len(c.electives) > 0 && c.budget.free(now) {
		e := c.electives[0]
		n := c.pickNode(e.r.svc, nil)
		if n == nil {
			return
		}
		c.electives = c.electives[1:]
		e.r.elective = false
		if err := c.admitLoad(e.reqAt, now, n, e.r, LoadElective); err != nil {
			e.r.elective = true
			c.electives = append(c.electives, e)
			return
		}
	}
}

// ElectivesQueued reports how many scale-out replicas are waiting for
// budget headroom.
func (c *Cluster) ElectivesQueued() int { return len(c.electives) }
