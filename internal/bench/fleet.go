package bench

import (
	"fmt"
	"runtime"
	"time"

	"harmonia/internal/fleet"
	"harmonia/internal/metrics"
	"harmonia/internal/sim"
)

// Fleet experiments exercise the multi-device control plane beyond the
// paper's single-device evaluation: the scale-out throughput series and
// the failover recovery-time series, both over the heterogeneous
// catalog fleet (§2.3's cloud deployment setting).

// fleetSweepMax bounds the device-count sweep.
const fleetSweepMax = 4

// FleetScaleOut measures aggregate cluster goodput and QPS as the fleet
// grows from 1 to 4 devices with offered load proportional to fleet
// size. Aggregate throughput growing with device count is the property
// the control plane must preserve.
func FleetScaleOut() (*metrics.Figure, error) {
	fig := &metrics.Figure{ID: "fleet1", Title: "Fleet scale-out aggregate throughput"}
	goodput := &metrics.Series{Label: "goodput-gbps", XLabel: "devices", YLabel: "Gbps"}
	offered := &metrics.Series{Label: "offered-gbps"}
	qps := &metrics.Series{Label: "mqps"}
	t := fleet.DefaultTraffic("layer4-lb")
	pts, err := fleet.ScaleOut(fleet.DefaultConfig(), "layer4-lb", fleetSweepMax, t)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		x := float64(p.Devices)
		goodput.Add(x, p.GoodputGbps)
		offered.Add(x, t.OfferedGbps*x)
		qps.Add(x, p.QPS/1e6)
	}
	fig.Series = append(fig.Series, goodput, offered, qps)
	return fig, nil
}

// ControlPlaneSizes is the default fleet3 figure sweep.
var ControlPlaneSizes = []int{100, 300, 1000}

// ControlPlaneScaleSizes extends the sweep to the 10k-node scale point
// the rack-hierarchical path exists for.
var ControlPlaneScaleSizes = []int{100, 300, 1000, 10000}

// RackFlatBound is the fleet3 scale gate: the rack path's ns/pkt at
// 10000 nodes must stay within this factor of its 1000-node cost —
// per-packet dispatch cost must not scale with the fleet.
const RackFlatBound = 1.25

// AllocBound is the fleet3 allocation gate: the batched fast path and
// the rack path must stay at or below this many heap allocations per
// routed packet at every swept size of at least AllocGateMinNodes —
// per-packet dispatch must not allocate; the residual budget covers
// barrier-time control-plane work amortized over the phase. Below the
// floor a 50 µs phase routes too few packets (hundreds) for the
// per-barrier dispatch-view rebuild to amortize, so toy sweeps are
// exempt.
const (
	AllocBound        = 0.05
	AllocGateMinNodes = 100
)

// FastBatchedBoundNs and FastBatchedGateNodes are the fleet3 batched-
// dispatch gate: the fast path's wall-ns per packet at the 1000-node
// point must stay at or below the bound (the pre-batching point
// measured ~1771 ns/pkt there).
const (
	FastBatchedBoundNs   = 800.0
	FastBatchedGateNodes = 1000
)

// Fixed fleet3 workload: a short phase keeps the 10000-node point
// affordable in CI while still routing tens of thousands of packets per
// point.
const (
	cpPhase       = 50 * sim.Microsecond
	cpGbpsPerNode = 40.0
	cpApp         = "layer4-lb"
)

// ControlPlanePoint is one fleet-size measurement of control-plane
// routing overhead: the same prepared workload run on the flat sharded
// path (incremental replica index, cohort heartbeats, histogram latency
// window) and on the rack path.
type ControlPlanePoint struct {
	Nodes   int   `json:"nodes"`
	Shards  int   `json:"shards"`
	Cohorts int   `json:"cohorts"`
	Racks   int   `json:"racks"`
	Packets int64 `json:"packets"`

	FastNsPerPkt     float64 `json:"fast_ns_per_pkt"`
	FastAllocsPerPkt float64 `json:"fast_allocs_per_pkt"`

	// Rack path: RackP2C dispatch with gossip health, the
	// configuration the 10k point scales on.
	RackNsPerPkt     float64 `json:"rack_ns_per_pkt"`
	RackAllocsPerPkt float64 `json:"rack_allocs_per_pkt"`

	// Goodput on both paths — the sanity check that they routed the
	// same workload.
	FastGoodputGbps float64 `json:"fast_goodput_gbps"`
	RackGoodputGbps float64 `json:"rack_goodput_gbps"`
}

// ControlPlaneReport is the machine-readable fleet3 artifact
// (BENCH_fleet.json).
type ControlPlaneReport struct {
	Experiment  string              `json:"experiment"`
	App         string              `json:"app"`
	PhasePs     int64               `json:"phase_ps"`
	GbpsPerNode float64             `json:"gbps_per_node"`
	Points      []ControlPlanePoint `json:"points"`

	// Scale gate: rack-path ns/pkt at 10000 nodes over the 1000-node
	// point, against RackFlatBound.
	RackFlatRatio  float64 `json:"rack_flat_ratio"`
	RackFlatBound  float64 `json:"rack_flat_bound"`
	RackFlat       bool    `json:"rack_flat"`
	RackFlatReason string  `json:"rack_flat_reason,omitempty"`

	// Allocation gate: fast and rack allocs/pkt at or below AllocBound
	// at every swept size of at least AllocGateMinNodes.
	AllocBound   float64 `json:"alloc_bound"`
	AllocsFlat   bool    `json:"allocs_flat"`
	AllocsReason string  `json:"allocs_reason,omitempty"`

	// Batched-dispatch gate: fast-path ns/pkt at FastBatchedGateNodes
	// at or below FastBatchedBoundNs.
	FastGateNodes    int     `json:"fast_gate_nodes"`
	FastGateBoundNs  float64 `json:"fast_gate_bound_ns"`
	FastGateNsPerPkt float64 `json:"fast_gate_ns_per_pkt,omitempty"`
	FastGate         bool    `json:"fast_gate"`
	FastGateReason   string  `json:"fast_gate_reason,omitempty"`
}

// Every gate fails closed: a sweep that did not measure a gated point
// fails that gate with a reason starting "missing".

// gateRackFlat computes the scale gate over the sweep's points.
func (r *ControlPlaneReport) gateRackFlat() {
	r.RackFlatBound = RackFlatBound
	var at1k, at10k float64
	for _, p := range r.Points {
		switch p.Nodes {
		case 1000:
			at1k = p.RackNsPerPkt
		case 10000:
			at10k = p.RackNsPerPkt
		}
	}
	if at1k <= 0 || at10k <= 0 {
		r.RackFlatReason = "missing: the sweep has no rack-path point at both 1000 and 10000 nodes"
	} else {
		r.RackFlatRatio = at10k / at1k
		if r.RackFlatRatio > RackFlatBound {
			r.RackFlatReason = fmt.Sprintf("rack path 10k/1k ns/pkt ratio %.3f exceeds %.2f", r.RackFlatRatio, RackFlatBound)
		}
	}
	r.RackFlat = r.RackFlatReason == ""
}

// gateAllocs computes the allocation gate: every swept fleet-scale
// point's fast and rack paths must route without per-packet heap
// allocation.
func (r *ControlPlaneReport) gateAllocs() {
	r.AllocBound = AllocBound
	gated := 0
	for _, p := range r.Points {
		if p.Nodes < AllocGateMinNodes {
			continue
		}
		gated++
		if r.AllocsReason == "" && (p.FastAllocsPerPkt > AllocBound || p.RackAllocsPerPkt > AllocBound) {
			r.AllocsReason = fmt.Sprintf("%d nodes: fast %.3f / rack %.3f allocs/pkt exceed %.2f",
				p.Nodes, p.FastAllocsPerPkt, p.RackAllocsPerPkt, AllocBound)
		}
	}
	if gated == 0 {
		r.AllocsReason = fmt.Sprintf("missing: the sweep has no point of at least %d nodes", AllocGateMinNodes)
	}
	r.AllocsFlat = r.AllocsReason == ""
}

// gateFastBatched computes the batched-dispatch gate at the 1000-node
// point.
func (r *ControlPlaneReport) gateFastBatched() {
	r.FastGateNodes = FastBatchedGateNodes
	r.FastGateBoundNs = FastBatchedBoundNs
	for _, p := range r.Points {
		if p.Nodes == FastBatchedGateNodes {
			r.FastGateNsPerPkt = p.FastNsPerPkt
		}
	}
	if r.FastGateNsPerPkt <= 0 {
		r.FastGateReason = fmt.Sprintf("missing: the sweep has no %d-node fast-path point", FastBatchedGateNodes)
	} else if r.FastGateNsPerPkt > FastBatchedBoundNs {
		r.FastGateReason = fmt.Sprintf("fast path %.1f ns/pkt at %d nodes exceeds %.0f",
			r.FastGateNsPerPkt, FastBatchedGateNodes, FastBatchedBoundNs)
	}
	r.FastGate = r.FastGateReason == ""
}

// Failures lists the reason of every failed gate, in gate order; empty
// when all pass.
func (r *ControlPlaneReport) Failures() []string {
	var out []string
	for _, reason := range []string{r.RackFlatReason, r.AllocsReason, r.FastGateReason} {
		if reason != "" {
			out = append(out, reason)
		}
	}
	return out
}

// cpCohorts picks the heartbeat cohort count for a fleet size, mirroring
// the router's auto shard policy: one cohort per 64 devices, capped.
func cpCohorts(n int) int {
	c := n/64 + 1
	if c > 16 {
		c = 16
	}
	return c
}

// measuredPhase runs one prepared phase and reports wall-ns and heap
// allocations per offered packet. Workload generation and cluster
// bring-up happen before the clock starts; only the serving loop is
// measured.
func measuredPhase(run func() (fleet.PhaseStats, error)) (fleet.PhaseStats, float64, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	st, err := run()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return st, 0, 0, err
	}
	if st.Sent == 0 {
		return st, 0, 0, fmt.Errorf("bench: measured phase sent no packets")
	}
	return st,
		float64(wall.Nanoseconds()) / float64(st.Sent),
		float64(m1.Mallocs-m0.Mallocs) / float64(st.Sent),
		nil
}

// cpPrepare builds an n-device cluster, lets placement mature, and
// prepares the seeded fleet3 phase (offered load proportional to fleet
// size, so per-packet cost is compared at matched utilization).
func cpPrepare(cfg fleet.Config, n int) (*fleet.Phase, error) {
	c, err := fleet.BuildCluster(cfg, cpApp, n, n)
	if err != nil {
		return nil, err
	}
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	t := fleet.DefaultTraffic(cpApp)
	t.OfferedGbps = cpGbpsPerNode * float64(n)
	return c.PreparePhase(cpPhase, t)
}

// ControlPlaneSweep measures routing overhead at each fleet size. Each
// point runs the same seeded workload on two clusters: the flat sharded
// path with cohort heartbeats, and the rack path with gossip health.
func ControlPlaneSweep(sizes []int) ([]ControlPlanePoint, error) {
	var out []ControlPlanePoint
	for _, n := range sizes {
		if n < 1 {
			return out, fmt.Errorf("bench: invalid fleet size %d", n)
		}
		p := ControlPlanePoint{Nodes: n, Cohorts: cpCohorts(n)}

		fast := fleet.DefaultConfig()
		fast.HeartbeatCohorts = cpCohorts(n)
		fph, err := cpPrepare(fast, n)
		if err != nil {
			return out, err
		}
		fst, fNs, fAllocs, err := measuredPhase(fph.Run)
		if err != nil {
			return out, err
		}
		p.Shards, p.Packets = fph.Shards(), fst.Sent
		p.FastNsPerPkt, p.FastAllocsPerPkt = fNs, fAllocs
		p.FastGoodputGbps = fst.GoodputGbps

		// Rack path: one shard per rack, rack-first two-choices
		// dispatch, gossip health instead of the central sweep — the
		// configuration whose per-packet cost must not scale with n.
		rack := fleet.DefaultConfig()
		rack.RackP2C = true
		rack.GossipHealth = true
		rph, err := cpPrepare(rack, n)
		if err != nil {
			return out, err
		}
		rst, rNs, rAllocs, err := measuredPhase(rph.Run)
		if err != nil {
			return out, err
		}
		p.Racks = rph.Shards()
		p.RackNsPerPkt, p.RackAllocsPerPkt = rNs, rAllocs
		p.RackGoodputGbps = rst.GoodputGbps
		out = append(out, p)
	}
	return out, nil
}

// FleetControlPlaneReport runs the sweep and wraps it as the
// BENCH_fleet.json artifact.
func FleetControlPlaneReport(sizes []int) (*ControlPlaneReport, error) {
	if len(sizes) == 0 {
		sizes = ControlPlaneSizes
	}
	pts, err := ControlPlaneSweep(sizes)
	if err != nil {
		return nil, err
	}
	rep := &ControlPlaneReport{
		Experiment: "fleet3", App: cpApp,
		PhasePs: int64(cpPhase), GbpsPerNode: cpGbpsPerNode,
		Points: pts,
	}
	rep.gateRackFlat()
	rep.gateAllocs()
	rep.gateFastBatched()
	return rep, nil
}

// FleetControlPlane is the fleet3 figure: control-plane overhead per
// routed packet as the fleet scales, flat sharded path vs rack path.
func FleetControlPlane() (*metrics.Figure, error) {
	fig := &metrics.Figure{ID: "fleet3", Title: "Fleet control-plane overhead scaling"}
	fNs := &metrics.Series{Label: "fastpath-ns-per-pkt", XLabel: "devices", YLabel: "ns/pkt"}
	rNs := &metrics.Series{Label: "rackpath-ns-per-pkt"}
	fAl := &metrics.Series{Label: "fastpath-allocs-per-pkt"}
	pts, err := ControlPlaneSweep(ControlPlaneSizes)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		x := float64(p.Nodes)
		fNs.Add(x, p.FastNsPerPkt)
		rNs.Add(x, p.RackNsPerPkt)
		fAl.Add(x, p.FastAllocsPerPkt)
	}
	fig.Series = append(fig.Series, fNs, rNs, fAl)
	return fig, nil
}

// FleetRecovery measures the kill-a-device drill across fleet sizes:
// detection latency (missed-heartbeat budget) and fault-to-full-
// re-placement recovery time, which the PR reconfiguration dominates.
func FleetRecovery() (*metrics.Figure, error) {
	fig := &metrics.Figure{ID: "fleet2", Title: "Fleet failover recovery time"}
	detect := &metrics.Series{Label: "detect-us", XLabel: "devices", YLabel: "microseconds"}
	recover := &metrics.Series{Label: "recovery-us"}
	retained := &metrics.Series{Label: "post-goodput-frac"}
	for n := 2; n <= fleetSweepMax; n++ {
		d, err := fleet.KillDrill(fleet.DefaultConfig(), "layer4-lb", n, fleet.DefaultTraffic("layer4-lb"))
		if err != nil {
			return nil, err
		}
		x := float64(n)
		detect.Add(x, float64(d.DetectedAt-d.FaultAt)/float64(sim.Microsecond))
		recover.Add(x, float64(d.RecoveryTime)/float64(sim.Microsecond))
		retained.Add(x, d.Post.GoodputGbps/d.Pre.GoodputGbps)
	}
	fig.Series = append(fig.Series, detect, recover, retained)
	return fig, nil
}
