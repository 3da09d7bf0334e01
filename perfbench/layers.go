package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"harmonia/internal/apps"
	"harmonia/internal/cmdif"
	"harmonia/internal/device"
	"harmonia/internal/fleet"
	"harmonia/internal/gossip"
	"harmonia/internal/ip"
	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/obs"
	"harmonia/internal/pcie"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
	"harmonia/internal/tenancy"
	"harmonia/internal/workload"
)

// perLayer are the traced run's metrics: spans around the window
// loop's calls and set-up stages, layer replays, the serve- and
// barrier-path sums with their unexplained residuals, and counts read
// from the fleet's public accessors.
var perLayer = []metricSpec{
	{"fleet.prepare_ns_per_pkt", "ns"},
	{"fleet.serve_ns_per_pkt", "ns"},
	{"fleet.barrier_us.p50", "us"},
	{"fleet.barrier_us.p99", "us"},
	{"fleet.barrier_us.mean", "us"},
	{"fleet.barriers", "count"},
	{"fleet.inject_us", "us"},
	{"fleet.packet_path_share", "ratio"},
	{"fleet.barrier_share", "ratio"},
	{"fleet.commission_ms_per_node", "ms"},
	{"fleet.place_ms", "ms"},
	{"fleet.warmup_ms", "ms"},
	{"workload.gen_ns_per_pkt", "ns"},
	{"workload.allocs_per_pkt", "count"},
	{"net.flow_hash_ns", "ns"},
	{"rbb.ingress_ns", "ns"},
	{"metrics.hist_add_ns", "ns"},
	{"apps.flow_ns", "ns"},
	{"apps.snapshot_us", "us"},
	{"apps.flow_entries", "count"},
	{"device.cmd_ns", "ns"},
	{"cmdif.codec_ns", "ns"},
	{"uck.exec_ns", "ns"},
	{"pcie.transfer_ns", "ns"},
	{"gossip.tick_us", "us"},
	{"obs.slo_step_ns", "ns"},
	{"tenancy.steer_ns", "ns"},
	{"fleet.serve_path_sum_ns_per_pkt", "ns"},
	{"fleet.serve_residual_ns_per_pkt", "ns"},
	{"fleet.barrier_path_sum_us", "us"},
	{"fleet.barrier_residual_us", "us"},
	{"device.cmds_per_barrier", "count"},
	{"device.cmd_retry_ratio", "ratio"},
	{"fleet.failovers", "count"},
	{"fleet.pr_loads", "count"},
	{"fleet.pr_load_fail_ratio", "ratio"},
	{"fleet.migrations", "count"},
	{"rbb.drop_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// spans holds a traced round's host time per window-loop call and per
// set-up stage, kept in memory until the run is reduced.
type spans struct {
	inject, prepare, serve, barrier []time.Duration
	commission, place, warmup       time.Duration
}

// add records one window from its five call boundaries.
func (s *spans) add(t0, t1, t2, t3, t4 time.Time) {
	s.inject = append(s.inject, t1.Sub(t0))
	s.prepare = append(s.prepare, t2.Sub(t1))
	s.serve = append(s.serve, t3.Sub(t2))
	s.barrier = append(s.barrier, t4.Sub(t3))
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p/100*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sink keeps replayed results live so the compiler cannot drop the
// calls being timed.
var sink uint64

// A layer replay times replayBatches batches, each repeating the call
// for at least replayBatch, and keeps the median batch, so one garbage
// collection landing in a batch does not move the figure.
const (
	replayBatches = 7
	replayBatch   = 4 * time.Millisecond
)

// perOp times fn, which performs ops operations per call, after one
// untimed warm-up call, and reports ns per operation.
func perOp(ops int, fn func()) float64 {
	fn()
	batches := make([]float64, replayBatches)
	for b := range batches {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < replayBatch {
			fn()
			calls++
		}
		batches[b] = float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
	}
	sort.Float64s(batches)
	return batches[replayBatches/2]
}

func layerMetrics(rounds []*roundStats, f *fleetRun) (map[string]metric, error) {
	var traced, plain []*roundStats
	var prepare, serve, inject, barrier, wall time.Duration
	var bars []time.Duration
	var pkts int64
	for _, r := range rounds {
		if r.spans == nil {
			plain = append(plain, r)
			continue
		}
		traced = append(traced, r)
		prepare += total(r.spans.prepare)
		serve += total(r.spans.serve)
		inject += total(r.spans.inject)
		barrier += total(r.spans.barrier)
		bars = append(bars, r.spans.barrier...)
		wall += r.wall
		pkts += r.out.Sent
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i] < bars[j] })
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	us := func(d time.Duration) float64 { return ns(d) / 1e3 }
	ms := func(d time.Duration) float64 { return ns(d) / 1e6 }

	m := map[string]metric{}
	units := map[string]string{}
	for _, s := range perLayer {
		units[s.name] = s.unit
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }

	windows := float64(len(bars))
	serveNs := ns(serve) / float64(pkts)
	barrierUs := us(barrier) / windows
	set("fleet.prepare_ns_per_pkt", ns(prepare)/float64(pkts))
	set("fleet.serve_ns_per_pkt", serveNs)
	set("fleet.barrier_us.p50", us(percentile(bars, 50)))
	set("fleet.barrier_us.p99", us(percentile(bars, 99)))
	set("fleet.barrier_us.mean", barrierUs)
	set("fleet.barriers", float64(f.p.windows))
	set("fleet.inject_us", us(inject)/windows)
	set("fleet.packet_path_share", ns(prepare+serve)/ns(wall))
	set("fleet.barrier_share", ns(barrier)/ns(wall))
	set("fleet.commission_ms_per_node", median(traced, func(r *roundStats) float64 {
		return ms(r.spans.commission) / float64(f.p.nodes)
	}))
	set("fleet.place_ms", median(traced, func(r *roundStats) float64 { return ms(r.spans.place) }))
	set("fleet.warmup_ms", median(traced, func(r *roundStats) float64 { return ms(r.spans.warmup) }))
	set("trace.overhead_ratio", median(traced, func(r *roundStats) float64 { return ns(r.wall) })/
		median(plain, func(r *roundStats) float64 { return ns(r.wall) }))

	// Counts over the last traced round's measured windows, read before
	// the replays below touch the fleet.
	c := f.c
	end := readCounters(c)
	issued := end.cmd.Issued - f.base.cmd.Issued
	cmdsPerBarrier := float64(issued) / float64(f.p.windows)
	set("device.cmds_per_barrier", cmdsPerBarrier)
	set("device.cmd_retry_ratio", ratio(end.cmd.Retries-f.base.cmd.Retries, issued))
	set("fleet.failovers", float64(end.failovers-f.base.failovers))
	set("fleet.migrations", float64(end.migrations-f.base.migrations))
	var loads, failedLoads int64
	for _, e := range c.LoadEvents() {
		if e.ReqAt < f.base.at {
			continue
		}
		loads++
		if !e.OK {
			failedLoads++
		}
	}
	set("fleet.pr_loads", float64(loads))
	set("fleet.pr_load_fail_ratio", ratio(failedLoads, loads))
	drops := end.rx.Drops - f.base.rx.Drops
	set("rbb.drop_ratio", ratio(drops, drops+end.rx.Units-f.base.rx.Units))

	r, err := replay(f)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	set("workload.gen_ns_per_pkt", r.gen)
	set("workload.allocs_per_pkt", r.genAllocs)
	set("net.flow_hash_ns", r.hash)
	set("rbb.ingress_ns", r.ingress)
	set("metrics.hist_add_ns", r.histAdd)
	set("apps.flow_ns", r.flow)
	set("apps.snapshot_us", r.snapshot/1e3)
	set("apps.flow_entries", r.entries)
	set("device.cmd_ns", r.cmd)
	set("cmdif.codec_ns", r.codec)
	set("uck.exec_ns", r.exec)
	set("pcie.transfer_ns", r.transfer)
	set("gossip.tick_us", r.tick/1e3)
	set("obs.slo_step_ns", r.sloStep)
	set("tenancy.steer_ns", r.steer)

	// Each served packet crosses one directed ingress, lands in two
	// latency histograms (shard and service) and, for a stateful
	// service, one connection-table lookup or pin; the rest of serve is
	// the router's own dispatch.
	servePath := r.ingress + 2*r.histAdd + r.statefulShare*r.flow
	set("fleet.serve_path_sum_ns_per_pkt", servePath)
	set("fleet.serve_residual_ns_per_pkt", serveNs-servePath)
	// Each barrier issues its commands (probes, plus the table rows that
	// snapshots and migrations read and write), snapshots the stateful
	// tables of every probed node once per SnapshotEvery probes, ticks
	// the gossip detector and steps every service's SLO tracker. Without
	// gossip every command is a heartbeat probe.
	cfg := c.Config()
	probes, gossipNs := cmdsPerBarrier, 0.0
	if cfg.GossipHealth {
		probes = float64(end.probes-f.base.probes) / float64(f.p.windows)
		gossipNs = r.tick
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 8
	}
	snapshots := 0.0
	if cfg.MigrateFlows {
		snapshots = probes * r.statefulPerNode / float64(snapEvery)
	}
	barrierPath := (cmdsPerBarrier*r.cmd + snapshots*r.snapshot + gossipNs +
		r.sloStep*float64(len(f.p.svcs))) / 1e3
	set("fleet.barrier_path_sum_us", barrierPath)
	set("fleet.barrier_residual_us", barrierUs-barrierPath)
	return m, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replayed holds each layer's replayed cost (ns per operation unless
// named otherwise) and the run-derived inputs the sums weigh them by.
type replayed struct {
	gen, genAllocs, hash, ingress, histAdd, flow float64
	snapshot, entries                            float64
	cmd, codec, exec, transfer                   float64
	tick, sloStep, steer                         float64
	// statefulShare is the share of packets bound for stateful
	// services; statefulPerNode the stateful replicas per live node.
	statefulShare, statefulPerNode float64
}

// replay times each layer's public call on inputs taken from the round
// just measured: the last window's packet streams, the fleet's final
// connection-table sizes, size and gossip fanout, its services and one
// of its deployed projects.
func replay(f *fleetRun) (replayed, error) {
	var r replayed
	c := f.c
	cfg := c.Config()
	stateful := map[string]bool{}
	for _, s := range f.p.svcs {
		stateful[s.Name] = s.Stateful
	}

	// workload: regenerate the last window's streams.
	shapes := f.p.traffic(f.p.windows - 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pkts, arr, statefulPkts, err := generate(shapes, cfg.Heartbeat-1, stateful)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return r, err
	}
	r.genAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(pkts))
	r.statefulShare = float64(statefulPkts) / float64(len(pkts))
	r.gen = perOp(len(pkts), func() {
		p, _, _, _ := generate(shapes, cfg.Heartbeat-1, stateful) // succeeded above
		sink ^= uint64(len(p))
	})

	r.hash = perOp(len(pkts), func() {
		for _, p := range pkts {
			sink ^= p.Flow().Hash()
		}
	})

	nodes := c.Nodes()
	nic, err := rbb.NewNetwork(nodes[0].Platform.Vendor, ip.Speed100G, apps.UserClock(), apps.UserWidth)
	if err != nil {
		return r, err
	}
	var at sim.Time
	r.ingress = perOp(len(pkts), func() {
		for _, p := range pkts {
			// Half the 100G line rate: the replay times the crossing,
			// not tail drops.
			at += sim.Time((p.WireBytes + net.FrameOverhead) * 8 * 20)
			done, _ := nic.IngressDirected(at, p)
			sink ^= uint64(done)
		}
	})

	var hist metrics.Histogram
	r.histAdd = perOp(len(arr), func() {
		for _, a := range arr {
			hist.Add(sim.Microsecond + a%(10*sim.Microsecond))
		}
	})

	table := apps.NewFlowTable(1 << 16)
	backend := backends()[0]
	r.flow = perOp(len(pkts), func() {
		for _, p := range pkts {
			k := p.Flow()
			if _, ok := table.Lookup(k); !ok {
				table.Pin(k, backend)
			}
		}
	})

	var tables, placed int
	live := map[string]bool{}
	for _, rep := range c.Replicas() {
		if rep.Node == "" {
			continue
		}
		n, err := c.Node(rep.Node)
		if err != nil || (n.State() != fleet.Healthy && n.State() != fleet.Degraded) {
			continue
		}
		live[n.ID] = true
		if !stateful[rep.Service] {
			continue
		}
		placed++
		words, err := n.Inst.ReadTable(device.RBBRole, 0, fleet.FlowTableBase|uint32(rep.Tenant), 0)
		if err != nil || len(words) < 2 {
			continue
		}
		tables++
		r.entries += float64(words[1])
	}
	if tables > 0 {
		r.entries /= float64(tables)
	}
	if len(live) > 0 {
		r.statefulPerNode = float64(placed) / float64(len(live))
	}
	// Tables fill from near empty after the warm-up to their final size,
	// so the run's mean table holds about half the final entries.
	snap := apps.NewFlowTable(1 << 16)
	for i := 0; i < int(r.entries/2+0.5); i++ {
		snap.Pin(net.FlowKey{
			SrcIP: net.IPv4(172, 16, byte(i>>8), byte(i)), DstIP: net.IPv4(10, 1, byte(i>>8), byte(i)),
			Proto: net.ProtoTCP, SrcPort: uint16(1024 + i%50000), DstPort: 443,
		}, backend)
	}
	r.snapshot = perOp(1, func() { sink ^= uint64(len(apps.EncodeFlowSnapshot(snap.Snapshot()))) })

	// The command path on a fresh boot of one deployed project, so the
	// replay leaves the measured fleet's devices alone.
	dev, err := device.Boot(nodes[0].Project)
	if err != nil {
		return r, err
	}
	var cmdErr error
	r.cmd = perOp(1, func() {
		if _, err := dev.CheckHealth(); err != nil {
			cmdErr = err
		}
	})
	stats := cmdif.New(device.RBBMgmt, 0, cmdif.StatsRead)
	r.codec = perOp(1, func() {
		b, err := stats.Marshal()
		if err != nil {
			cmdErr = err
			return
		}
		p, _, err := cmdif.Unmarshal(b)
		if err != nil {
			cmdErr = err
			return
		}
		sink ^= uint64(p.Code)
	})
	status := cmdif.New(device.RBBMgmt, 0, cmdif.StatusRead)
	kernel := dev.Kernel()
	var kt sim.Time
	r.exec = perOp(1, func() {
		_, done, err := kernel.Execute(kt, status)
		if err != nil {
			cmdErr = err
		}
		kt = done
	})
	link, err := pcie.NewLink("replay", 4, 16)
	if err != nil {
		return r, err
	}
	var lt sim.Time
	r.transfer = perOp(1, func() { lt = link.Transfer(lt, stats.WireBytes()) })
	if cmdErr != nil {
		return r, cmdErr
	}

	gc := gossip.DefaultConfig(cfg.Seed)
	gc.FailedAfter = cfg.FailedAfter
	if cfg.GossipFanout > 0 {
		gc.Fanout = cfg.GossipFanout
	}
	if cfg.GossipPiggyback > 0 {
		gc.Piggyback = cfg.GossipPiggyback
	}
	g, err := gossip.New(len(nodes), gc)
	if err != nil {
		return r, err
	}
	alive := func(int) bool { return true }
	r.tick = perOp(1, func() { sink ^= uint64(len(g.Tick(alive, alive))) })

	trackers := map[string]*obs.SLOTracker{}
	for _, s := range f.p.svcs {
		avail := s.SLO.Availability
		if avail >= 1 {
			avail = 0.999999
		}
		trackers[s.Name] = obs.NewSLOTracker(avail, c.SLOWindows())
	}
	alerter := obs.NewAlerter(c.AlertRules())
	burn := func(svc string, win int) float64 { return trackers[svc].BurnRate(win) }
	var now sim.Time
	r.sloStep = perOp(len(f.p.svcs), func() {
		now += cfg.Heartbeat
		for _, s := range f.p.svcs {
			trackers[s.Name].Advance(1000, 1000, false)
		}
		sink ^= uint64(len(alerter.Step(now, burn)))
	})

	var mgr *tenancy.Manager
	var vip net.IPAddr
	for _, rep := range c.Replicas() {
		if !live[rep.Node] {
			continue
		}
		n, err := c.Node(rep.Node)
		if err != nil || n.Tenants == nil {
			continue
		}
		if _, _, err := n.Tenants.ResolveSteering(rep.VIP); err == nil {
			mgr, vip = n.Tenants, rep.VIP
			break
		}
	}
	if mgr == nil {
		return r, fmt.Errorf("no replica with resolvable steering")
	}
	r.steer = perOp(1, func() {
		lo, span, _ := mgr.ResolveSteering(vip)
		sink ^= uint64(lo + span)
	})
	return r, nil
}

// generate replays the fleet's workload generation for a window's
// traffic shapes — the same packet and arrival streams PreparePhase
// draws — and counts the packets bound for stateful services.
func generate(shapes []fleet.Traffic, dur sim.Time, stateful map[string]bool) ([]*net.Packet, []sim.Time, int, error) {
	var pkts []*net.Packet
	var arr []sim.Time
	statefulPkts := 0
	for _, t := range shapes {
		gap := sim.Time(float64((t.PktBytes+net.FrameOverhead)*8) / t.OfferedGbps * float64(sim.Nanosecond))
		if gap < 1 {
			gap = 1
		}
		count := int(dur/gap) + 1
		p, err := workload.Packets(workload.PacketConfig{Count: count, Size: t.PktBytes, Flows: t.Flows, Seed: t.Seed})
		if err != nil {
			return nil, nil, 0, err
		}
		a, err := workload.Arrivals(count, gap, t.Jitter, t.Seed+1)
		if err != nil {
			return nil, nil, 0, err
		}
		pkts = append(pkts, p...)
		arr = append(arr, a...)
		if stateful[t.Service] {
			statefulPkts += count
		}
	}
	return pkts, arr, statefulPkts, nil
}
