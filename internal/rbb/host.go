package rbb

import (
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/pcie"
	"harmonia/internal/platform"
	"harmonia/internal/sim"
	"harmonia/internal/wrapper"
)

// HostRBB is the functional Host building block: a PCIe DMA engine
// instance behind an interface wrapper, with the multi-queue isolation
// Ex-function (1K queues, active-queue scheduling) and per-queue
// monitoring (§3.3.1).
type HostRBB struct {
	desc   *Desc
	spec   ip.DMASpec
	Engine *pcie.Engine
	path   *wrapper.DataPath
	// queueOwner maps queue id to tenant for isolation accounting.
	queueOwner map[int]int
	traffic    Counters
}

// NewHost builds a Host RBB for a vendor DMA engine at the given PCIe
// generation/lanes, with the role side at userClk and userWidth.
func NewHost(vendor platform.Vendor, gen, lanes int, variant ip.DMAVariant, userClk *sim.Clock, userWidth int) (*HostRBB, error) {
	spec, err := ip.SpecForDMA(gen, lanes)
	if err != nil {
		return nil, err
	}
	desc, err := NewHostDesc(vendor, gen, lanes, variant)
	if err != nil {
		return nil, err
	}
	link, err := pcie.NewLink(fmt.Sprintf("pcie-gen%dx%d", gen, lanes), gen, lanes)
	if err != nil {
		return nil, err
	}
	// The engine's queue bound is the spec's, the one AssignQueue checks.
	cfg := pcie.DefaultEngineConfig()
	cfg.Queues = spec.QueueCount
	engine, err := pcie.NewEngine(link, cfg)
	if err != nil {
		return nil, err
	}
	dmaClk := sim.NewClock("dma", spec.CoreMHz)
	path, err := wrapper.NewDataPath("host-rbb", dmaClk, spec.DataWidth, userClk, userWidth)
	if err != nil {
		return nil, err
	}
	return &HostRBB{
		desc:       desc,
		spec:       spec,
		Engine:     engine,
		path:       path,
		queueOwner: make(map[int]int),
	}, nil
}

func hostDesc(wrapped *hdl.Module, overhead hdl.Resources) *Desc {
	return &Desc{
		Kind:         HostKind,
		Instance:     wrapped,
		WrapOverhead: overhead,
		InstanceGlue: hdl.LoC{Handcraft: 1_600},
		Reusable: ReusableLogic{
			ExFunction: hdl.LoC{Handcraft: 3_800}, // multi-queue isolation + scheduler
			Control:    hdl.LoC{Handcraft: 1_300},
			Monitoring: hdl.LoC{Handcraft: 1_100}, // per-queue depth/packets/speed
			Res:        hdl.Resources{LUT: 11_000, REG: 16_500, BRAM: 32, URAM: 12},
			Params: []hdl.Param{
				{Name: "QUEUES_USED", Default: "64", Scope: hdl.RoleOriented},
				{Name: "QUEUE_ISOLATION", Default: "1", Scope: hdl.RoleOriented},
				{Name: "CTRL_QUEUE", Default: "1", Scope: hdl.RoleOriented},
				{Name: "PER_QUEUE_STATS", Default: "1", Scope: hdl.RoleOriented},
			},
		},
	}
}

// Desc returns the structural description.
func (h *HostRBB) Desc() *Desc { return h.desc }

// Spec returns the DMA engine specification.
func (h *HostRBB) Spec() ip.DMASpec { return h.spec }

// AssignQueue binds a queue to a tenant; a queue may serve one tenant.
func (h *HostRBB) AssignQueue(queue, tenant int) error {
	if queue < 0 || queue >= h.spec.QueueCount {
		return fmt.Errorf("rbb: queue %d out of range [0,%d)", queue, h.spec.QueueCount)
	}
	if owner, taken := h.queueOwner[queue]; taken && owner != tenant {
		return fmt.Errorf("rbb: queue %d already owned by tenant %d", queue, owner)
	}
	h.queueOwner[queue] = tenant
	return nil
}

// ReleaseQueue returns a queue to the unowned pool — the host half of
// reclaiming a retired tenant range on rebuild. Releasing an unowned
// queue is a no-op.
func (h *HostRBB) ReleaseQueue(queue int) {
	delete(h.queueOwner, queue)
}

// Owner reports the tenant owning a queue.
func (h *HostRBB) Owner(queue int) (int, bool) {
	t, ok := h.queueOwner[queue]
	return t, ok
}

// Send moves bytes to the host on a queue. The data crosses the wrapper
// into the DMA clock domain, then posts to the engine.
func (h *HostRBB) Send(now sim.Time, queue int, bytes int) (done sim.Time, err error) {
	through := h.path.Transfer(now, bytes)
	if err := h.Engine.Post(through, queue, pcie.DeviceToHost, bytes); err != nil {
		return 0, err
	}
	h.traffic.Record(bytes, false)
	return h.Engine.Drain(through), nil
}

// Receive moves bytes from the host on a queue.
func (h *HostRBB) Receive(now sim.Time, queue int, bytes int) (done sim.Time, err error) {
	if err := h.Engine.Post(now, queue, pcie.HostToDevice, bytes); err != nil {
		return 0, err
	}
	linkDone := h.Engine.Drain(now)
	h.traffic.Record(bytes, false)
	return h.path.Transfer(linkDone, bytes), nil
}

// Stats reports aggregate traffic counters.
func (h *HostRBB) Stats() Counters { return h.traffic }

// QueueStats reports per-queue monitoring.
func (h *HostRBB) QueueStats(queue int) (pcie.QueueStats, error) {
	return h.Engine.QueueStats(queue)
}

// WrapperLatency reports the wrapper's fixed latency.
func (h *HostRBB) WrapperLatency() sim.Time { return h.path.FixedLatency() }

// HostGbps reports the PCIe link bandwidth.
func (h *HostRBB) HostGbps() float64 { return h.Engine.Link().Gbps() }

// SetNative toggles native mode (no wrapper translation pipeline).
func (h *HostRBB) SetNative(on bool) { h.path.SetBypass(on) }
