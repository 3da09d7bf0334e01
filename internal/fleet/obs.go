package fleet

import (
	"fmt"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// The cluster's observability wiring. Every control-plane and serving
// layer registers read-through metrics into one obs.Registry at
// construction, and SetTrace attaches an obs.Process whose tracks the
// layers record spans into: the control plane and command path each
// get a track, and every router shard gets its own — shard tracks are
// touched by exactly one worker between barriers (the same ownership
// rule as the shard RNG and counters), which keeps traces
// byte-deterministic under parallel serving.
//
// The public stats accessors (CmdPath, RouterStats, LoadBudgetPeak,
// ...) sum the live counters directly, and the registry's callbacks
// call those same accessors, so drill JSON and registry snapshots read
// one source and can never disagree.

// Standard fleet metric names.
const (
	mRouterSent      = "harmonia_router_sent_total"
	mRouterServed    = "harmonia_router_served_total"
	mRouterDropped   = "harmonia_router_dropped_total"
	mRouterHealthy   = "harmonia_router_healthy_served_total"
	mRouterBytes     = "harmonia_router_bytes_total"
	mRouteLatency    = "harmonia_route_latency_window_ps"
	mCmdIssued       = "harmonia_cmd_issued_total"
	mCmdRetries      = "harmonia_cmd_retries_total"
	mCmdDrops        = "harmonia_cmd_drops_total"
	mNodes           = "harmonia_fleet_nodes"
	mReplicas        = "harmonia_fleet_replicas"
	mReplicasReady   = "harmonia_fleet_replicas_placed"
	mLoads           = "harmonia_pr_loads_total"
	mLoadsQueued     = "harmonia_pr_loads_queued_total"
	mLoadFailures    = "harmonia_pr_load_failures_total"
	mLoadsPeak       = "harmonia_pr_loads_peak_concurrent"
	mLoadsPreempted  = "harmonia_pr_loads_preempted_total"
	mElectivesQueued = "harmonia_pr_electives_queued"

	mRouteLatencyHist = "harmonia_route_latency_window_hist_ps"

	mSLOBurn    = "harmonia_slo_burn_rate"
	mSLOP99Viol = "harmonia_slo_p99_violation_fraction"
	mAlerts     = "harmonia_alerts_total"

	mSvcSent     = "harmonia_service_sent_total"
	mSvcServed   = "harmonia_service_served_total"
	mSvcDropped  = "harmonia_service_dropped_total"
	mSvcHealthy  = "harmonia_service_healthy_served_total"
	mSvcShed     = "harmonia_service_shed_total"
	mSvcBytes    = "harmonia_service_bytes_total"
	mFailovers   = "harmonia_failovers_total"
	mTransitions = "harmonia_transitions_total"
	mMigrations  = "harmonia_migrations_total"
	mThermalMax  = "harmonia_thermal_max_milli_c"
	mSimNow      = "harmonia_sim_now_ps"

	mFragmentation  = "harmonia_fleet_fragmentation"
	mStrandedQueues = "harmonia_fleet_stranded_queues"
	mRebalanceMoves = "harmonia_rebalance_moves_total"

	mGossipTicks    = "harmonia_gossip_ticks_total"
	mGossipProbes   = "harmonia_gossip_probes_total"
	mGossipDigests  = "harmonia_gossip_digests_total"
	mGossipSuspects = "harmonia_gossip_suspicions_total"
	mGossipRefutes  = "harmonia_gossip_refutations_total"
	mGossipConfirms = "harmonia_gossip_confirmations_total"
	mGossipPerTick  = "harmonia_gossip_msgs_per_tick"
)

// registerMetrics wires every layer's stats accessors into the
// registry as read-through callbacks. Nothing here runs on the serving
// hot path; callbacks evaluate only at snapshot time.
func (c *Cluster) registerMetrics() {
	reg := c.reg

	// Router shards, merged.
	reg.Counter(mRouterSent, "Packets offered to the fleet router.",
		func() int64 { return c.RouterStats().Sent })
	reg.Counter(mRouterServed, "Packets a replica's datapath accepted.",
		func() int64 { return c.RouterStats().Served })
	reg.Counter(mRouterDropped, "Packets dropped (no replica, steering reject, tail drop).",
		func() int64 { return c.RouterStats().Dropped })
	reg.Counter(mRouterHealthy, "Served packets that landed on a Healthy node.",
		func() int64 { return c.RouterStats().HealthyServed })
	reg.Counter(mRouterBytes, "Wire bytes the router served.",
		func() int64 { return c.RouterStats().Bytes })
	reg.SummaryM(mRouteLatency, "Routed-packet latency over the current window (ps).",
		func() obs.Summary {
			h := c.router.windowHist()
			return obs.Summary{
				Count: h.Count(),
				Sum:   float64(h.Sum()),
				P50:   float64(h.Percentile(50)),
				P99:   float64(h.Percentile(99)),
				Max:   float64(h.Max()),
			}
		})

	reg.HistogramM(mRouteLatencyHist,
		"Routed-packet latency over the current window (native histogram, ps).",
		func() obs.HistSnapshot {
			h := c.router.windowHist()
			snap := obs.HistSnapshot{Count: h.Count(), Sum: float64(h.Sum())}
			h.CumBuckets(func(upper sim.Time, cum int64) {
				snap.Buckets = append(snap.Buckets, obs.HistBucket{LE: float64(upper), Count: cum})
			})
			return snap
		})

	// Command path (CmdDriver counters summed across nodes).
	reg.Counter(mCmdIssued, "Commands completed over every node's command path.",
		func() int64 { return c.CmdPath().Issued })
	reg.Counter(mCmdRetries, "Checksum-triggered command retransmissions.",
		func() int64 { return c.CmdPath().Retries })
	reg.Counter(mCmdDrops, "Commands abandoned after exhausting retries.",
		func() int64 { return c.CmdPath().Drops })

	// Fleet health.
	for _, st := range []State{Healthy, Degraded, Failed, Drained} {
		st := st
		reg.GaugeL(mNodes, map[string]string{"state": string(st)}, "Nodes by health state.",
			func() float64 {
				n := 0
				for _, node := range c.nodes {
					if node.state == st {
						n++
					}
				}
				return float64(n)
			})
	}
	reg.Gauge(mReplicas, "Replicas materialized (placed or pending).",
		func() float64 { return float64(len(c.replicas)) })
	reg.Gauge(mReplicasReady, "Replicas currently placed on a device.",
		func() float64 {
			n := 0
			for _, r := range c.replicas {
				if r.Node != "" {
					n++
				}
			}
			return float64(n)
		})
	reg.Counter(mFailovers, "Completed failover evacuations.",
		func() int64 { return int64(len(c.failovers)) })
	reg.Counter(mTransitions, "Health state-machine transitions.",
		func() int64 { return int64(len(c.transitions)) })
	reg.Gauge(mThermalMax, "Hottest last-heartbeat die temperature (milli-degC).",
		func() float64 {
			var max uint32
			for _, n := range c.nodes {
				if n.lastTemp > max {
					max = n.lastTemp
				}
			}
			return float64(max)
		})
	reg.Gauge(mSimNow, "Cluster simulated time (ps).",
		func() float64 { return float64(c.now) })

	// Reconfiguration budget.
	reg.Counter(mLoads, "Partial-bitstream load grants since the last budget reset.",
		func() int64 { return int64(len(c.budget.events)) })
	reg.Counter(mLoadsQueued, "Loads the budget delayed past their request time.",
		func() int64 { return int64(c.LoadsQueued()) })
	reg.Counter(mLoadFailures, "Injected bitstream-load failures across tenancy managers.",
		func() int64 { return c.LoadFailures() })
	reg.Gauge(mLoadsPeak, "Peak concurrent PR loads since the last budget reset.",
		func() float64 { return float64(c.LoadBudgetPeak()) })
	reg.Counter(mLoadsPreempted, "Failover grants issued while elective loads were queued.",
		func() int64 { return int64(c.LoadsPreempted()) })
	reg.Gauge(mElectivesQueued, "Elective scale-out loads waiting for budget headroom.",
		func() float64 { return float64(len(c.electives)) })

	// Fragmentation and background rebalancing.
	reg.Gauge(mFragmentation, "Fleet fragmentation score (0.6 queue frag + 0.2 slot imbalance + 0.2 drift).",
		func() float64 { return c.Fragmentation().Score })
	reg.Gauge(mStrandedQueues, "Host queues retired by evictions and not yet reclaimed, fleet-wide.",
		func() float64 { return float64(c.Fragmentation().StrandedQueues) })
	for _, outcome := range []string{"done", "aborted"} {
		outcome := outcome
		reg.CounterL(mRebalanceMoves, map[string]string{"outcome": outcome},
			"Rebalance moves by outcome.",
			func() int64 {
				s := c.RebalanceStats()
				if outcome == "done" {
					return int64(s.MovesDone)
				}
				return int64(s.MovesAborted)
			})
	}

	// Gossip health dissemination (all zero while the detector is off).
	reg.Counter(mGossipTicks, "Gossip detector protocol rounds.",
		func() int64 { return c.GossipStats().Ticks })
	reg.Counter(mGossipProbes, "Direct gossip probes (rotation plus confirmation).",
		func() int64 { return c.GossipStats().Probes })
	reg.Counter(mGossipDigests, "Piggybacked peer liveness observations.",
		func() int64 { return c.GossipStats().Digests })
	reg.Counter(mGossipSuspects, "Gossip suspicion events.",
		func() int64 { return c.GossipStats().Suspicions })
	reg.Counter(mGossipRefutes, "Gossip refutation events (incarnation bumps).",
		func() int64 { return c.GossipStats().Refutations })
	reg.Counter(mGossipConfirms, "Gossip dead-confirmation events.",
		func() int64 { return c.GossipStats().Confirmations })
	reg.Gauge(mGossipPerTick, "Mean gossip messages (probes+digests) per tick.",
		func() float64 {
			s := c.GossipStats()
			if s.Ticks == 0 {
				return 0
			}
			return float64(s.Probes+s.Digests) / float64(s.Ticks)
		})

	// Flow migration, split by path.
	for _, mode := range []string{"live", "snapshot"} {
		mode := mode
		reg.CounterL(mMigrations, map[string]string{"mode": mode},
			"Connection tables carried across failover, by transfer path.",
			func() int64 {
				var n int64
				for _, m := range c.migrations {
					if m.Live == (mode == "live") {
						n++
					}
				}
				return n
			})
	}
}

// registerServiceMetrics wires one service's labeled dispatch counters
// at registration time (AddService), reading its record through.
func (c *Cluster) registerServiceMetrics(svc *service) {
	labels := map[string]string{"service": svc.Name}
	reg := c.reg
	reg.CounterL(mSvcSent, labels, "Packets offered per service.",
		func() int64 { return svc.snapshot().Sent })
	reg.CounterL(mSvcServed, labels, "Packets served per service.",
		func() int64 { return svc.snapshot().Served })
	reg.CounterL(mSvcDropped, labels, "Packets dropped per service.",
		func() int64 { return svc.snapshot().Dropped })
	reg.CounterL(mSvcHealthy, labels, "Served packets landing on Healthy nodes, per service.",
		func() int64 { return svc.snapshot().HealthyServed })
	reg.CounterL(mSvcShed, labels, "Drops caused by the class shedding order, per service.",
		func() int64 { return svc.snapshot().Shed })
	reg.CounterL(mSvcBytes, labels, "Wire bytes served per service.",
		func() int64 { return svc.snapshot().Bytes })
}

// Metrics returns the cluster's metrics registry.
func (c *Cluster) Metrics() *obs.Registry { return c.reg }

// SetTrace attaches (or with nil detaches) a trace process: the
// control plane, command path and every router shard record into its
// tracks from here on. Attach before serving traffic for complete
// recordings; track creation order is deterministic.
func (c *Cluster) SetTrace(p *obs.Process) {
	c.tp = p
	if p == nil {
		c.ctrl, c.cmdTrack = nil, nil
		for _, sh := range c.router.shards {
			sh.trace = nil
		}
		for _, n := range c.nodes {
			n.Inst.SetCmdTrace(nil)
		}
		return
	}
	c.ctrl = p.Track("control-plane")
	c.cmdTrack = p.Track("cmd-path")
	for _, n := range c.nodes {
		n.Inst.SetCmdTrace(c.cmdTrack)
	}
	c.attachShardTraces()
}

// attachShardTraces gives each frozen router shard its own track.
// Called from SetTrace and again when the router freezes its layout.
func (c *Cluster) attachShardTraces() {
	if c.tp == nil || !c.router.frozen {
		return
	}
	for i, sh := range c.router.shards {
		sh.trace = c.tp.Track(fmt.Sprintf("shard-%02d", i))
		sh.sampleN = c.tp.Sample()
	}
}

// traceFault records one applied chaos injection on the control track.
func (c *Cluster) traceFault(kind string, node string, arg int64) {
	if c.ctrl == nil {
		return
	}
	e := obs.Instant(obs.CatFault, kind, c.now)
	e.K1, e.V1 = "node", node
	e.K2, e.V2 = "arg", arg
	c.ctrl.Add(e)
}
