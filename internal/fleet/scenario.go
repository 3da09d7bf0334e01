package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"harmonia/internal/apps"
	"harmonia/internal/metrics"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

// Scenario drivers: a closed traffic loop over the cluster (Serve), the
// scale-out sweep and the kill-a-device drill. cmd/harmonia-fleet and
// bench build on these.

// Traffic shapes one serving phase.
type Traffic struct {
	Service     string
	OfferedGbps float64
	PktBytes    int
	Flows       int
	// Jitter spreads packet gaps (see workload.Arrivals).
	Jitter float64
	// Seed makes the phase reproducible end to end: packet contents,
	// arrival times and router sampling all derive from explicit seeds.
	Seed int64
}

// DefaultTraffic returns a moderate offered load for one service.
func DefaultTraffic(service string) Traffic {
	return Traffic{
		Service: service, OfferedGbps: 40, PktBytes: 1024,
		Flows: 256, Jitter: 0.2, Seed: 7,
	}
}

// PhaseStats summarizes one serving phase.
type PhaseStats struct {
	From, To              sim.Time
	Sent, Served, Dropped int64
	Bytes                 int64
	// GoodputGbps and QPS are aggregate cluster-wide rates over the
	// phase; P50/P99 are per-packet device transit latencies.
	GoodputGbps float64
	QPS         float64
	P50, P99    sim.Time
}

// Phase is one prepared traffic phase: the deterministic workload
// (each packet's flow index and arrival time) generated up front, ready
// to run against the cluster. Preparing and running are split so the
// control-plane benchmark can measure the serving path alone.
//
// A phase carries one traffic shape per service; a single-service phase
// is the one-shape case of a co-resident one, and both run through the
// same loop.
//
// A phase runs once. Its workload lives in storage the cluster
// recycles: Run hands it back to the cluster for the next prepare, and
// a second run of the same phase returns an error.
type Phase struct {
	c   *Cluster
	dur sim.Time
	n   int
	// bufs owns the slices below until the phase runs; nil after.
	bufs     *phaseBufs
	traffics []Traffic
	// flows is each packet's flow index: its 5-tuple is flowKey(flow)
	// and its size its traffic shape's PktBytes, so Run rebuilds each
	// packet from it.
	flows    []int32
	arrivals []sim.Time
	// hashes caches each packet's flow hash — the NIC-RSS analogue:
	// computed once at prepare time, reused by dispatch, the flow cache
	// and shard partitioning instead of re-hashing per use.
	hashes []uint64
	// svcIdx is each packet's index into traffics, and svcs each
	// traffic's registered service, resolved at prepare.
	svcIdx []uint8
	svcs   []*service
}

// stream is one generated packet stream: each packet's flow index,
// arrival offset and flow hash.
type stream struct {
	flows  []int32
	arr    []sim.Time
	hashes []uint64
}

// phaseBufs is the storage a prepared phase owns until it runs: its
// traffic shapes and their services, merged stream and service
// indexes, the per-service streams a co-resident phase merges from, and
// the shard queues Run fills. The cluster keeps the set the last phase
// handed back, so a steady prepare → run sequence reuses one set
// instead of allocating a slab per window.
type phaseBufs struct {
	stream
	traffics []Traffic
	svcIdx   []uint8
	svcs     []*service
	streams  []stream
	queues   [][]int
	work     []int
}

// takeBufs returns the cluster's spare phase storage, or a new set.
func (c *Cluster) takeBufs() *phaseBufs {
	b := c.spare
	c.spare = nil
	if b == nil {
		b = &phaseBufs{}
	}
	return b
}

// errPhaseRan rejects a second run of a phase whose storage has gone
// back to the cluster.
var errPhaseRan = errors.New("fleet: phase already ran; prepare a new one")

// release hands the phase's storage back to the cluster.
func (ph *Phase) release() {
	ph.c.spare = ph.bufs
	ph.bufs, ph.traffics, ph.flows, ph.arrivals, ph.hashes, ph.svcIdx, ph.svcs = nil, nil, nil, nil, nil, nil, nil
}

// Shards reports the cluster's router shard count (0 until the router
// first freezes, i.e. before any phase has been prepared or run).
func (ph *Phase) Shards() int { return len(ph.c.router.shards) }

// PreparePhase validates a traffic phase and generates its workload.
// It also freezes the router layout and drains due replica
// maturations: that is control-plane work, and doing it here keeps it
// (and its allocations) out of the measured serving window that
// Phase.Run times.
func (c *Cluster) PreparePhase(dur sim.Time, t Traffic) (*Phase, error) {
	b := c.takeBufs()
	if err := c.genWorkload(&b.stream, dur, t); err != nil {
		c.spare = b
		return nil, err
	}
	// One service: the generated stream is the merged timeline, and
	// every packet indexes the one traffic shape.
	n := len(b.flows)
	if cap(b.svcIdx) > 2*n {
		b.svcIdx = nil
	}
	b.svcIdx = slices.Grow(b.svcIdx[:0], n)[:n]
	clear(b.svcIdx)
	return c.newPhase(b, dur, append(b.traffics[:0], t)), nil
}

// newPhase freezes the router layout, drains due maturations and wraps
// prepared storage as a phase over the given traffic shapes.
func (c *Cluster) newPhase(b *phaseBufs, dur sim.Time, traffics []Traffic) *Phase {
	c.router.freeze()
	c.router.mature(c.now)
	b.traffics = traffics
	b.svcs = b.svcs[:0]
	for _, t := range traffics {
		b.svcs = append(b.svcs, c.services[t.Service])
	}
	return &Phase{
		c: c, dur: dur, n: len(b.flows), bufs: b,
		traffics: traffics,
		flows:    b.flows,
		arrivals: b.arr,
		hashes:   b.hashes,
		svcIdx:   b.svcIdx,
		svcs:     b.svcs,
	}
}

// flowHashMemo bounds the flow-hash memo: traffic spread over more
// flows hashes each packet instead.
const flowHashMemo = 1 << 16

// flowKey is the 5-tuple of flow index f in every generated stream (the
// fleet's streams carry no VIP set: dispatch rewrites DstIP).
func flowKey(f int32) net.FlowKey { return workload.PacketConfig{}.FlowKey(int(f)) }

// genWorkload validates one traffic shape and generates its seeded flow
// indices, arrival offsets and flow hashes into s, reusing s's storage.
// A flow's key is a pure function of its index, so its hash comes from
// the cluster's per-index memo rather than from each packet.
func (c *Cluster) genWorkload(s *stream, dur sim.Time, t Traffic) error {
	if dur <= 0 || t.OfferedGbps <= 0 || t.PktBytes < net.MinFrame {
		return fmt.Errorf("fleet: invalid traffic phase %+v over %v", t, dur)
	}
	if _, ok := c.services[t.Service]; !ok {
		return fmt.Errorf("fleet: unknown service %q", t.Service)
	}
	gap := sim.Time(float64((t.PktBytes+net.FrameOverhead)*8) / t.OfferedGbps * float64(sim.Nanosecond))
	if gap < 1 {
		gap = 1
	}
	count := int(dur/gap) + 1
	if cap(s.flows) > 2*count {
		// Storage sized for a much longer phase (a warm-up) would stay
		// live between windows; let it go.
		*s = stream{}
	}
	cfg := workload.PacketConfig{Count: count, Size: t.PktBytes, Flows: t.Flows, Seed: t.Seed}
	var err error
	if s.flows, err = c.gen.AppendFlows(s.flows[:0], cfg); err != nil {
		return err
	}
	if s.arr, err = c.gen.AppendArrivals(s.arr[:0], count, gap, t.Jitter, t.Seed+1); err != nil {
		return err
	}
	s.hashes = slices.Grow(s.hashes[:0], count)
	if flows := max(t.Flows, 1); flows <= flowHashMemo {
		for f := len(c.flowHash); f < flows; f++ {
			c.flowHash = append(c.flowHash, flowKey(int32(f)).Hash())
		}
		for _, f := range s.flows {
			s.hashes = append(s.hashes, c.flowHash[f])
		}
	} else {
		for _, f := range s.flows {
			s.hashes = append(s.hashes, flowKey(f).Hash())
		}
	}
	return nil
}

// PrepareMultiPhase validates a co-resident traffic phase — one shape
// per service — and merges the per-service seeded streams into a single
// arrival-ordered timeline (ties resolve by traffic order, then by
// sequence within a stream, so the merge is deterministic). Each packet
// remembers its service; dispatch then routes it through that service's
// replica index exactly as a single-service phase would.
func (c *Cluster) PrepareMultiPhase(dur sim.Time, traffics []Traffic) (*Phase, error) {
	if len(traffics) == 0 {
		return nil, fmt.Errorf("fleet: co-resident phase needs at least one traffic shape")
	}
	if len(traffics) == 1 {
		return c.PreparePhase(dur, traffics[0])
	}
	if len(traffics) > 255 {
		return nil, fmt.Errorf("fleet: co-resident phase supports at most 255 services, got %d", len(traffics))
	}
	for ti, t := range traffics {
		for _, u := range traffics[:ti] {
			if u.Service == t.Service {
				return nil, fmt.Errorf("fleet: duplicate traffic for service %q", t.Service)
			}
		}
	}
	b := c.takeBufs()
	for len(b.streams) < len(traffics) {
		b.streams = append(b.streams, stream{})
	}
	streams := b.streams[:len(traffics)]
	total := 0
	for ti, t := range traffics {
		if err := c.genWorkload(&streams[ti], dur, t); err != nil {
			c.spare = b
			return nil, err
		}
		total += len(streams[ti].flows)
	}
	m := &b.stream
	if cap(m.flows) > 2*total {
		*m, b.svcIdx = stream{}, nil
	}
	m.flows = slices.Grow(m.flows[:0], total)
	m.arr = slices.Grow(m.arr[:0], total)
	m.hashes = slices.Grow(m.hashes[:0], total)
	b.svcIdx = slices.Grow(b.svcIdx[:0], total)
	var next [255]int
	for {
		best := -1
		for ti := range streams {
			if next[ti] >= len(streams[ti].flows) {
				continue
			}
			if best < 0 || streams[ti].arr[next[ti]] < streams[best].arr[next[best]] {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		s, k := &streams[best], next[best]
		m.flows = append(m.flows, s.flows[k])
		m.arr = append(m.arr, s.arr[k])
		m.hashes = append(m.hashes, s.hashes[k])
		b.svcIdx = append(b.svcIdx, uint8(best))
		next[best]++
	}
	return c.newPhase(b, dur, append(b.traffics[:0], traffics...)), nil
}

// Serve runs one traffic phase of the given duration starting at the
// cluster's current time, interleaving the periodic health monitor with
// packet dispatch, and reports aggregate throughput/QPS/latency over
// the phase via the metrics package. Dispatch runs on the sharded fast
// path, parallelized across ServeWorkers goroutines between heartbeat
// barriers; seeded phases are bit-reproducible regardless of worker
// count (see Phase.Run).
func (c *Cluster) Serve(dur sim.Time, t Traffic) (PhaseStats, error) {
	ph, err := c.PreparePhase(dur, t)
	if err != nil {
		return PhaseStats{}, err
	}
	return ph.Run()
}

// ServeMulti runs one co-resident traffic phase — every service's
// stream merged onto one timeline — under the same determinism contract
// as Serve: aggregate PhaseStats and trace bytes are byte-identical
// across worker counts and batch quanta. Per-service outcomes are read
// via ServiceStats / ServiceWindowLatencies deltas around the call.
func (c *Cluster) ServeMulti(dur sim.Time, traffics []Traffic) (PhaseStats, error) {
	ph, err := c.PrepareMultiPhase(dur, traffics)
	if err != nil {
		return PhaseStats{}, err
	}
	return ph.Run()
}

// serialQuantum is the packet count below which a quantum runs inline:
// fanning goroutines out for a handful of packets costs more than it
// saves, and the result is identical either way.
const serialQuantum = 256

// defaultBatchQuantum is the dispatch run cap when Config.BatchQuantum
// is 0: barrier windows are drained in runs of at most this many
// packets. Quantum splits carry no control-plane work and preserve the
// flow caches, so the size never changes results.
const defaultBatchQuantum = 8192

// Run executes the phase on the sharded fast path.
//
// The packet timeline is cut into quanta at heartbeat ticks. Within a
// quantum the replica set and node health are frozen (they only change
// on the control-plane path, which runs at the barriers), so each
// router shard — its RNG, counters, latency histogram and the nodes it
// owns — is touched by exactly one worker, without locks. At each
// barrier the due heartbeat cohort is probed, failovers re-place
// replicas, and matured replicas enter the ready index.
//
// Determinism contract: flows hash onto shards, so each shard sees a
// fixed packet subsequence in arrival order no matter how many workers
// run; counters and histograms merge exactly. Aggregate PhaseStats are
// therefore byte-identical across worker counts and GOMAXPROCS
// settings. Only the (unobserved) wall-clock interleaving of per-packet
// work differs; per-packet ordering is guaranteed shard-local, not
// global. Results do depend on the shard count, which is part of the
// seeded configuration.
func (ph *Phase) Run() (PhaseStats, error) {
	if ph.bufs == nil {
		return PhaseStats{}, errPhaseRan
	}
	defer ph.release()
	c := ph.c
	r := c.router
	r.freeze()
	r.mature(c.now)
	c.rackRefresh(c.now)
	// A phase start is a barrier: dispatch views refresh before the
	// first quantum.
	r.bumpEpoch()

	workers := c.workers()
	if workers > len(r.shards) {
		workers = len(r.shards)
	}
	quantum := c.cfg.BatchQuantum
	if quantum <= 0 {
		quantum = defaultBatchQuantum
	}

	start := c.now
	end := start + ph.dur
	before := c.RouterStats()
	r.resetWindow()

	b := ph.bufs
	for len(b.queues) < len(r.shards) {
		b.queues = append(b.queues, nil)
	}
	queues, work := b.queues[:len(r.shards)], &b.work
	nextHB := c.nextHeartbeat
	if nextHB == 0 {
		nextHB = c.cfg.Heartbeat
	}
	at := func(k int) sim.Time { return start + ph.arrivals[k] }

	i := 0
	for i < ph.n && at(i) <= end {
		// Fire every heartbeat due before the next packet (a heartbeat
		// sharing the packet's timestamp probes first, as in the serial
		// monitor interleaving).
		for nextHB <= at(i) {
			c.Heartbeat(nextHB)
			nextHB += c.cfg.Heartbeat
		}
		// One barrier window: every packet strictly before the next
		// barrier, drained in runs of at most quantum packets.
		j := i
		for j < ph.n && at(j) < nextHB && at(j) <= end {
			j++
		}
		for i < j {
			k := i + quantum
			if k > j {
				k = j
			}
			ph.runQuantum(queues, work, i, k, workers)
			i = k
		}
	}
	for nextHB <= end {
		c.Heartbeat(nextHB)
		nextHB += c.cfg.Heartbeat
	}
	c.nextHeartbeat = nextHB
	c.advance(end)

	return ph.stats(start, before, r.windowHist()), nil
}

// runQuantum partitions packets [i, j) onto shards and routes each
// shard's subsequence, fanning out to workers when the quantum is large
// enough to pay for it. Each packet partitions onto the shard its *own*
// service's dispatch chooses, so two services' flows with the same hash
// can land on different shards (per-service active sets differ). Shard
// subsequences stay fixed by (service, flow hash), whatever the worker
// count.
func (ph *Phase) runQuantum(queues [][]int, work *[]int, i, j, workers int) {
	if i >= j {
		return
	}
	r := ph.c.router
	for s := range queues {
		queues[s] = queues[s][:0]
	}
	for k := i; k < j; k++ {
		h := ph.hashes[k]
		svc := ph.svcs[ph.svcIdx[k]]
		var s int
		if len(svc.active) > 0 {
			s = r.dispatchShard(svc, h)
		} else {
			// Nothing can serve this service: spread the drops over all
			// shards so counters stay shard-consistent.
			s = int(h % uint64(len(queues)))
		}
		queues[s] = append(queues[s], k)
	}
	*work = (*work)[:0]
	for s := range queues {
		if len(queues[s]) > 0 {
			*work = append(*work, s)
		}
	}
	if workers <= 1 || len(*work) == 1 || j-i < serialQuantum {
		for _, s := range *work {
			ph.runShard(s, queues[s])
		}
		return
	}
	if workers > len(*work) {
		workers = len(*work)
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := atomic.AddInt64(&next, 1) - 1
				if k >= int64(len(*work)) {
					return
				}
				s := (*work)[k]
				ph.runShard(s, queues[s])
			}
		}()
	}
	wg.Wait()
}

// runShard routes one shard's packet subsequence in arrival order, one
// run of consecutive same-service packets at a time; a single-service
// shard is one run.
func (ph *Phase) runShard(s int, idxs []int) {
	for len(idxs) > 0 {
		ti := ph.svcIdx[idxs[0]]
		n := 1
		for n < len(idxs) && ph.svcIdx[idxs[n]] == ti {
			n++
		}
		ph.routeRun(s, ph.svcs[ti], ph.traffics[ti].PktBytes, idxs[:n])
		idxs = idxs[n:]
	}
}

// routeRun routes one run of a service's size-byte packets on shard s
// — the batched inner loop: the dispatch view refreshes at most once
// per epoch, every packet reuses its precomputed flow hash, and the
// (service, shard) counters accumulate in locals flushed once per run
// instead of read-modify-writes per packet. Each packet is rebuilt on
// the stack from its flow index.
func (ph *Phase) routeRun(s int, svc *service, size int, idxs []int) {
	c := ph.c
	r := c.router
	sh := r.shards[s]
	d := r.refreshDisp(svc, s)
	st := &svc.stats[s]
	start := c.now
	var served, dropped, healthy, shed, bytes int64
	for _, k := range idxs {
		now := start + ph.arrivals[k]
		f := flowKey(ph.flows[k])
		p := net.Packet{SrcIP: f.SrcIP, DstIP: f.DstIP, Proto: f.Proto,
			SrcPort: f.SrcPort, DstPort: f.DstPort, WireBytes: size}
		res := c.routeCached(sh, d, ph.hashes[k], now, &p)
		if !res.served {
			dropped++
			if res.node == nil && d.shed > 0 {
				// Class shedding emptied the view: the drop is a shed.
				shed++
			}
			if sh.trace != nil {
				node := ""
				if res.node != nil {
					node = res.node.ID
				}
				sh.traceDrop(now, node)
			}
			continue
		}
		served++
		if res.healthy {
			healthy++
		}
		bytes += int64(size)
		st.hist.Add(res.done - now)
		if sh.trace != nil {
			sh.tracePacket(now, res.done, res.node.ID, int64(size))
		}
	}
	st.ServiceSnapshot = st.add(ServiceSnapshot{
		Sent: int64(len(idxs)), Served: served, Dropped: dropped,
		HealthyServed: healthy, Shed: shed, Bytes: bytes,
	})
}

// stats assembles PhaseStats from the counter delta and the phase's
// merged latency window.
func (ph *Phase) stats(start sim.Time, before ServiceSnapshot, lat *metrics.Histogram) PhaseStats {
	c := ph.c
	d := c.RouterStats().sub(before)
	elapsed := c.now - start
	stats := PhaseStats{
		From: start, To: c.now,
		Sent: d.Sent, Served: d.Served, Dropped: d.Dropped, Bytes: d.Bytes,
		P50: lat.Percentile(50), P99: lat.Percentile(99),
	}
	stats.GoodputGbps = metrics.Gbps(stats.Bytes, elapsed)
	stats.QPS = metrics.Rate(stats.Served, elapsed)
	return stats
}

// compatiblePlatforms lists the catalog devices able to host every
// service (platformHosts), in catalog order.
func compatiblePlatforms(svcs ...Service) []*platform.Device {
	var out []*platform.Device
	for _, name := range platform.CatalogNames() {
		dev, err := platform.Lookup(name)
		if err == nil && !slices.ContainsFunc(svcs, func(svc Service) bool {
			return !platformHosts(dev, &svc)
		}) {
			out = append(out, dev)
		}
	}
	return out
}

// BuildCluster is the single-application convenience over
// BuildCoResidentCluster: it commissions a heterogeneous fleet of n
// devices (cycling the compatible catalog models) hosting `replicas`
// replicas of one named application, and places them. Co-resident
// deployments — several services with distinct demand sets sharing the
// fleet — go through BuildCoResidentCluster directly.
func BuildCluster(cfg Config, appName string, n, replicas int) (*Cluster, error) {
	info, err := apps.Lookup(appName)
	if err != nil {
		return nil, err
	}
	return BuildCoResidentCluster(cfg, []Service{AppService(info, replicas, net.IPv4(20, 0, 0, 1))}, n)
}

// BuildCoResidentCluster commissions a heterogeneous fleet of n devices
// shared by every given service — the paper's multi-tenant deployment
// shape. Services register first so their merged demand set shapes
// every shell; the device mix cycles the catalog models compatible
// with *all* services (each service's demands and PCIe floor must
// adapt), and placement bin-packs all services' replicas together,
// anti-affinity spreading each service across the shared nodes.
func BuildCoResidentCluster(cfg Config, svcs []Service, n int) (*Cluster, error) {
	c, err := commission(cfg, svcs, n)
	if err != nil {
		return nil, err
	}
	if _, err := c.Place(0); err != nil {
		return nil, err
	}
	return c, nil
}

// commission registers svcs on a new cluster and commissions n nodes
// cycling the catalog models compatible with every service: the one
// commissioning path, behind BuildCoResidentCluster and
// Workload.Commission.
func commission(cfg Config, svcs []Service, n int) (*Cluster, error) {
	if len(svcs) == 0 {
		return nil, fmt.Errorf("fleet: co-resident cluster needs at least one service")
	}
	c, err := NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	for _, svc := range svcs {
		if err := c.AddService(svc); err != nil {
			return nil, err
		}
	}
	models := compatiblePlatforms(svcs...)
	if len(models) == 0 {
		names := make([]string, len(svcs))
		for i, svc := range svcs {
			names[i] = svc.Name
		}
		return nil, fmt.Errorf("fleet: no catalog device can host all of %v", names)
	}
	for i := 0; i < n; i++ {
		model := models[i%len(models)]
		// Each node gets its own platform instance (catalog returns
		// fresh copies per Lookup).
		plat, err := platform.Lookup(model.Name)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("node-%02d-%s", i+1, plat.Name)
		if _, err := c.Commission(id, plat); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// ScalePoint is one scale-out sweep measurement.
type ScalePoint struct {
	Devices  int
	Replicas int
	PhaseStats
}

// ScaleOut sweeps the fleet from 1 to maxDevices devices (one replica
// per device), offering load proportional to the fleet size, and
// reports aggregate throughput at each size. Aggregate Gbps growing
// with device count is the scale-out property the bench asserts.
func ScaleOut(cfg Config, appName string, maxDevices int, t Traffic) ([]ScalePoint, error) {
	if maxDevices <= 0 {
		return nil, fmt.Errorf("fleet: invalid sweep size %d", maxDevices)
	}
	perDevice := t.OfferedGbps
	var out []ScalePoint
	for n := 1; n <= maxDevices; n++ {
		c, err := BuildCluster(cfg, appName, n, n)
		if err != nil {
			return out, err
		}
		// Let every slot finish reconfiguring before offering load.
		c.RunMonitorUntil(cfg.ReconfigTime * 2)
		phase := t
		phase.OfferedGbps = perDevice * float64(n)
		stats, err := c.Serve(400*sim.Microsecond, phase)
		if err != nil {
			return out, err
		}
		out = append(out, ScalePoint{Devices: n, Replicas: n, PhaseStats: stats})
	}
	return out, nil
}

// DrillResult reports a kill-a-device drill.
type DrillResult struct {
	Devices int
	Killed  string
	// FaultAt is when the device died; DetectedAt when the monitor
	// declared it failed; RecoveredAt when its last replica finished
	// re-placing. RecoveryTime = RecoveredAt - FaultAt.
	FaultAt, DetectedAt, RecoveredAt sim.Time
	RecoveryTime                     sim.Time
	// Moved/Replaced/Unplaced count the failed device's tenants.
	Moved, Replaced, Unplaced int
	// Pre/Post are the serving phases before the fault and after
	// recovery; throughput recovering toward Pre is the drill's pass
	// signal.
	Pre, Post   PhaseStats
	Transitions []Transition
}

// KillDrill builds an n-device fleet, serves traffic, silently kills
// the most loaded device mid-run, and measures detection, re-placement
// and throughput recovery. The survivors must have spare slots, so the
// drill runs n replicas on n devices with anti-affinity spreading them
// one-per-device beforehand.
func KillDrill(cfg Config, appName string, n int, t Traffic) (*DrillResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("fleet: kill drill needs at least 2 devices, got %d", n)
	}
	c, err := BuildCluster(cfg, appName, n, n)
	if err != nil {
		return nil, err
	}
	c.RunMonitorUntil(cfg.ReconfigTime * 2)

	pre, err := c.Serve(300*sim.Microsecond, t)
	if err != nil {
		return nil, err
	}

	victim := mostLoaded(c)
	faultAt, report, err := c.killAndDetect(victim, t)
	if err != nil {
		return nil, err
	}

	post := t
	post.Seed = t.Seed + 200
	postStats, err := c.Serve(300*sim.Microsecond, post)
	if err != nil {
		return nil, err
	}

	return &DrillResult{
		Devices: n, Killed: victim.ID,
		FaultAt: faultAt, DetectedAt: report.DetectedAt, RecoveredAt: report.RecoveredAt,
		RecoveryTime: report.Recovery(faultAt),
		Moved:        report.Moved, Replaced: report.Replaced, Unplaced: report.Unplaced,
		Pre: pre, Post: postStats,
		Transitions: c.Transitions(),
	}, nil
}

// mostLoaded picks the device hosting the most replicas (lowest ID
// breaks ties): the victim the kill and migration drills fail.
func mostLoaded(c *Cluster) *Node {
	nodes := c.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		if li, lj := len(nodes[i].replicas), len(nodes[j].replicas); li != lj {
			return li > lj
		}
		return nodes[i].ID < nodes[j].ID
	})
	return nodes[0]
}

// killAndDetect silently kills victim now and serves t, reseeded,
// through detection and reconfiguration: the router sheds load to the
// survivors while the monitor counts missed heartbeats. With cohort
// heartbeats the victim is only probed every C-th tick, so the
// detection budget scales with the cohort count. It returns the fault
// time and the victim's failover report.
func (c *Cluster) killAndDetect(victim *Node, t Traffic) (sim.Time, FailoverReport, error) {
	faultAt := c.Now()
	if err := c.Kill(victim.ID); err != nil {
		return 0, FailoverReport{}, err
	}
	detectBudget := sim.Time((c.cfg.FailedAfter+2)*c.cohorts())*c.cfg.Heartbeat + 2*c.cfg.ReconfigTime
	mid := t
	mid.Seed = t.Seed + 100
	if _, err := c.Serve(detectBudget, mid); err != nil {
		return 0, FailoverReport{}, err
	}
	for _, f := range c.failovers {
		if f.Node == victim.ID {
			return faultAt, f, nil
		}
	}
	return 0, FailoverReport{}, fmt.Errorf("fleet: %s was never declared failed", victim.ID)
}
