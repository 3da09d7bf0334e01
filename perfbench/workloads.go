package main

import (
	"fmt"
	"hash"
	"time"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/fleet"
	"harmonia/internal/hdl"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
)

// A scenario is one seeded fleet plus the window script the measured
// loop replays against it. README.md records why each exists.
type scenario struct {
	name string
	// build shapes the fleet and its script for a seed; toy shrinks it
	// to self-test size.
	build func(seed int64, toy bool) (*plan, error)
}

var workloads = []scenario{
	{name: "lb-steady-1k", build: steadyPlan},
	{name: "lb-storm-300", build: stormPlan},
	{name: "mix-churn-1k", build: churnPlan},
}

func lookupWorkload(name string) (*scenario, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is what set-up builds and what the window loop drives.
type plan struct {
	cfg     fleet.Config
	svcs    []fleet.Service
	nodes   int
	windows int
	// traffic returns window w's traffic shapes; w = -1 is the warm-up.
	traffic func(w int) []fleet.Traffic
	// arm runs once after the warm-up (budgets, fault schedules) and
	// returns the per-window injector, or nil when the fleet runs
	// undisturbed.
	arm func(c *fleet.Cluster) (func(w int) error, error)
}

// warmup is the serve phase after slot reconfiguration that fills flow
// caches and connection tables before the first measured window.
const warmup = 200 * sim.Microsecond

// Service names the workloads deploy.
const (
	lbApp   = "layer4-lb"
	bulkApp = "retrieval"
	secApp  = "sec-gateway"
)

// windowSeed derives window w's traffic seed (the fleet5 drills'
// derivation), so every window offers fresh arrivals over the same
// flow population.
func windowSeed(seed int64, w int) int64 { return seed*1_000_003 + int64(w+1)*1000 }

// backends is the stateful LB's initial backend pool.
func backends() []net.IPAddr {
	out := make([]net.IPAddr, 8)
	for i := range out {
		out[i] = net.IPv4(10, 2, 0, byte(i+1))
	}
	return out
}

func lbService(replicas int, stateful bool) (fleet.Service, error) {
	info, err := apps.Lookup(lbApp)
	if err != nil {
		return fleet.Service{}, err
	}
	svc := fleet.AppService(info, replicas, net.IPv4(20, 0, 0, 1))
	if stateful {
		svc.Stateful = true
		svc.Backends = backends()
	}
	return svc, nil
}

// lbTraffic is one window of single-service LB traffic.
func lbTraffic(gbps float64, flows int, seed int64) []fleet.Traffic {
	return []fleet.Traffic{{Service: lbApp, OfferedGbps: gbps, PktBytes: 1024, Flows: flows, Jitter: 0.2, Seed: seed}}
}

// steadyPlan: stateless LB, one replica per node on the flat sharded
// path with 16 heartbeat cohorts, 4 Gbps/node over flows that fit the
// per-shard flow cache, no faults.
func steadyPlan(seed int64, toy bool) (*plan, error) {
	n, windows := 1000, 160
	if toy {
		n, windows = 32, 6
	}
	svc, err := lbService(n, false)
	if err != nil {
		return nil, err
	}
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	cfg.HeartbeatCohorts = 16
	return &plan{
		cfg: cfg, svcs: []fleet.Service{svc}, nodes: n, windows: windows,
		traffic: func(w int) []fleet.Traffic { return lbTraffic(4*float64(n), 256, windowSeed(seed, w)) },
	}, nil
}

// scalePlaneConfig is fleet5's budgeted-derived control plane: gossip
// health (fanout 32, piggyback 8), rack-first dispatch, a connection
// table snapshot on every probe, and derived shedding over a 40 °C span.
func scalePlaneConfig(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	cfg.GossipHealth = true
	cfg.GossipFanout = 32
	cfg.GossipPiggyback = 8
	cfg.RackP2C = true
	cfg.SnapshotEvery = 1
	cfg.DerivedShedding = true
	cfg.ShedStartMilliC = cfg.DegradeMilliC - 40_000
	return cfg
}

// stormPlan replays faults.DefaultStorm against fleet5's
// budgeted-derived case, one heartbeat window at a time, long enough to
// cover the storm and its recovery tail.
func stormPlan(seed int64, toy bool) (*plan, error) {
	n, windows := 300, 300
	if toy {
		n, windows = 30, 24
	}
	svc, err := lbService(n, true)
	if err != nil {
		return nil, err
	}
	return &plan{
		cfg: scalePlaneConfig(seed), svcs: []fleet.Service{svc}, nodes: n, windows: windows,
		traffic: func(w int) []fleet.Traffic { return lbTraffic(400, 2048, windowSeed(seed, w)) },
		arm: func(c *fleet.Cluster) (func(int) error, error) {
			c.SetLoadBudget(8)
			spec := faults.DefaultStorm(n, seed)
			spec.Start = c.Now()
			sched, err := faults.Storm(spec)
			if err != nil {
				return nil, err
			}
			nodes := c.Nodes()
			hb := c.Config().Heartbeat
			next := 0
			// Injections due inside a window apply at its start.
			return func(w int) error {
				end := spec.Start + sim.Time(w+1)*hb
				for ; next < len(sched.Injections) && sched.Injections[next].At < end; next++ {
					if err := applyInjection(c, nodes, sched.Injections[next]); err != nil {
						return fmt.Errorf("%v: %w", sched.Injections[next], err)
					}
				}
				return nil
			}, nil
		},
	}, nil
}

// applyInjection maps one storm schedule entry onto the cluster's public
// fault and recovery calls, as the fleet5 drill does.
func applyInjection(c *fleet.Cluster, nodes []*fleet.Node, inj faults.Injection) error {
	if inj.Node >= len(nodes) {
		return fmt.Errorf("injection targets node %d of %d", inj.Node, len(nodes))
	}
	var n *fleet.Node
	if inj.Node >= 0 {
		n = nodes[inj.Node]
	}
	switch inj.Kind {
	case faults.KillNode:
		return c.Kill(n.ID)
	case faults.LinkDown:
		return c.CutLink(c.Now(), n.ID)
	case faults.LinkUp:
		if err := c.Revive(c.Now(), n.ID); err != nil {
			return err
		}
		// Still-unplaced replicas may land on the revived node; a failed
		// placement leaves them pending, as in the drill.
		_, _ = c.Place(c.Now())
		return nil
	case faults.ThermalSet:
		if inj.Arg == 0 {
			return c.Cool(n.ID)
		}
		return c.Overheat(n.ID, inj.Arg)
	case faults.CorruptStart:
		limit := int(inj.Arg)
		n.Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
			if attempt < limit && len(buf) > 0 {
				buf[0] ^= 0xFF
			}
			return buf
		})
		return nil
	case faults.CorruptEnd:
		n.Inst.SetWireFaultInjector(nil)
		return nil
	case faults.PRFaultStart:
		fail := faults.LoadFailureFn(c.Config().Seed, inj.Prob)
		c.SetPRLoadFault(func(node, tenant string, _, attempt int) bool { return fail(node, tenant, attempt) })
		return nil
	case faults.PRFaultEnd:
		c.SetPRLoadFault(nil)
		return nil
	case faults.DrainBackend:
		_, err := c.RemoveBackend(lbApp, backends()[inj.Arg], false)
		return err
	}
	return fmt.Errorf("unknown injection kind %q", inj.Kind)
}

// churnPlan is fleet8's co-resident service mix on the scale plane with
// the rebalancer on, flow populations 8× the flow cache, and periodic
// elective scale-outs and drain → revive cycles.
func churnPlan(seed int64, toy bool) (*plan, error) {
	n, windows := 1000, 128
	if toy {
		n, windows = 40, 12
	}
	lb, err := lbService(n, true)
	if err != nil {
		return nil, err
	}
	lb.Class = fleet.ClassLatencyCritical
	lb.SLO = fleet.SLO{Availability: 0.999}
	bulkInfo, err := apps.Lookup(bulkApp)
	if err != nil {
		return nil, err
	}
	bulk := fleet.AppService(bulkInfo, n/2, net.IPv4(30, 0, 0, 1))
	bulk.Class = fleet.ClassBulk
	bulk.SLO = fleet.SLO{Availability: 0.90}
	secInfo, err := apps.Lookup(secApp)
	if err != nil {
		return nil, err
	}
	sec := fleet.AppService(secInfo, n/4, net.IPv4(40, 0, 0, 1))
	sec.Class = fleet.ClassLatencyCritical
	sec.SLO = fleet.SLO{Availability: 0.999}

	cfg := scalePlaneConfig(seed)
	// Retrieval's role outgrows the default slot; fleet8 carves bigger
	// slots for the co-resident fleet.
	cfg.SlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}
	cfg.Rebalance = true
	gbps := 4 * float64(n)
	return &plan{
		cfg: cfg, svcs: []fleet.Service{lb, bulk, sec}, nodes: n, windows: windows,
		traffic: func(w int) []fleet.Traffic {
			s := windowSeed(seed, w)
			return []fleet.Traffic{
				{Service: lbApp, OfferedGbps: gbps / 2, PktBytes: 1024, Flows: 4096, Jitter: 0.2, Seed: s},
				{Service: bulkApp, OfferedGbps: gbps * 3 / 8, PktBytes: 1024, Flows: 4096, Jitter: 0.2, Seed: s + 101},
				{Service: secApp, OfferedGbps: gbps / 8, PktBytes: 256, Flows: 4096, Jitter: 0.2, Seed: s + 211},
			}
		},
		arm: func(c *fleet.Cluster) (func(int) error, error) {
			c.SetLoadBudget(6)
			return churner(c, seed), nil
		},
	}, nil
}

// Churn cadence in windows: the bulk service grows by one elective
// replica every scaleEvery windows, and every drainEvery windows one
// node is drained, then revived and re-placed half a cycle later.
const (
	scaleEvery = 8
	drainEvery = 16
)

func churner(c *fleet.Cluster, seed int64) func(w int) error {
	nodes := c.Nodes()
	drained := ""
	return func(w int) error {
		now := c.Now()
		if w%scaleEvery == 0 {
			if err := c.ScaleService(now, bulkApp, 1); err != nil {
				return err
			}
		}
		switch w % drainEvery {
		case 0:
			// The first healthy node hosting replicas at a seeded offset.
			start := int(uint64(seed*7919+int64(w)*104729) % uint64(len(nodes)))
			for i := range nodes {
				n := nodes[(start+i)%len(nodes)]
				if n.State() != fleet.Healthy || len(n.Replicas()) == 0 {
					continue
				}
				if _, err := c.DrainNode(now, n.ID); err != nil {
					return err
				}
				drained = n.ID
				break
			}
		case drainEvery / 2:
			if drained == "" {
				return nil
			}
			if err := c.Revive(now, drained); err != nil {
				return err
			}
			drained = ""
			_, _ = c.Place(now)
		}
		return nil
	}
}

// hostModels lists the catalog models able to host every service, in
// the order fleet.BuildCoResidentCluster cycles them. The fleet keeps
// its compatibility rule private, so a one-replica probe fleet with one
// node per catalog model reveals the cycle.
func hostModels(p *plan) ([]string, error) {
	probe := make([]fleet.Service, len(p.svcs))
	for i, s := range p.svcs {
		s.Replicas = 1
		probe[i] = s
	}
	c, err := fleet.BuildCoResidentCluster(p.cfg, probe, len(platform.CatalogNames()))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range c.Nodes() {
		if len(out) > 0 && n.Platform.Name == out[0] {
			break
		}
		out = append(out, n.Platform.Name)
	}
	return out, nil
}

// setUp builds the plan's fleet through the public API exactly as
// fleet.BuildCoResidentCluster does — register services, commission every
// node, place — then lets slots finish reconfiguring, serves the warm-up
// and arms the window script. sp, when non-nil, receives stage timings.
func setUp(p *plan, models []string, sp *spans) (*fleetRun, error) {
	c, err := fleet.NewCluster(p.cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range p.svcs {
		if err := c.AddService(s); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	for i := 0; i < p.nodes; i++ {
		plat, err := platform.Lookup(models[i%len(models)])
		if err != nil {
			return nil, err
		}
		if _, err := c.Commission(fmt.Sprintf("node-%02d-%s", i+1, plat.Name), plat); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	if _, err := c.Place(0); err != nil {
		return nil, err
	}
	t2 := time.Now()
	c.RunMonitorUntil(2 * p.cfg.ReconfigTime)
	if _, err := c.ServeMulti(warmup, p.traffic(-1)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	t3 := time.Now()
	var inject func(int) error
	if p.arm != nil {
		if inject, err = p.arm(c); err != nil {
			return nil, err
		}
	}
	if sp != nil {
		sp.commission, sp.place, sp.warmup = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	}
	return newFleetRun(c, p, inject), nil
}

// fleetRun is one built fleet plus the state the window loop keeps: the
// output checks, the running digest, and the counters at the first
// measured window.
type fleetRun struct {
	c      *fleet.Cluster
	p      *plan
	inject func(w int) error
	prev   []fleet.ServiceSnapshot
	digest hash.Hash
	// violation is the first failed output check ("" while all hold).
	violation string
	out       simOutputs
	base      counters
}

// window runs measured window w: inject, prepare, serve, then the one
// heartbeat barrier at the window's end. Run fires no barrier itself,
// because the phase ends 1 ps before the next heartbeat is due. With sp
// set, the host time of each call is recorded.
func (f *fleetRun) window(w int, sp *spans) error {
	c := f.c
	var t0, t1, t2, t3 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	if f.inject != nil {
		if err := f.inject(w); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
	}
	if sp != nil {
		t1 = time.Now()
	}
	ph, err := c.PrepareMultiPhase(c.Config().Heartbeat-1, f.p.traffic(w))
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if sp != nil {
		t2 = time.Now()
	}
	st, err := ph.Run()
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if sp != nil {
		t3 = time.Now()
	}
	c.RunMonitorUntil(c.Now() + 1)
	if sp != nil {
		sp.add(t0, t1, t2, t3, time.Now())
	}
	f.check(w, st)
	return nil
}
