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
	// owned lists the tenant-owned queue ranges for isolation
	// accounting: one entry per admitted tenant, not one per queue.
	owned   []queueRange
	traffic Counters
}

// queueRange is queues [lo, hi) owned by one tenant.
type queueRange struct{ lo, hi, tenant int }

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
	// The engine's queue bound is the spec's, the one AssignQueues checks.
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
		desc:   desc,
		spec:   spec,
		Engine: engine,
		path:   path,
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

// Spec returns the DMA engine specification.
func (h *HostRBB) Spec() ip.DMASpec { return h.spec }

// AssignQueues binds queues [lo, hi) to a tenant; a queue may serve
// one tenant, so a range overlapping another tenant's is refused.
func (h *HostRBB) AssignQueues(lo, hi, tenant int) error {
	if lo < 0 || hi > h.spec.QueueCount || lo >= hi {
		return fmt.Errorf("rbb: queues [%d,%d) out of range [0,%d)", lo, hi, h.spec.QueueCount)
	}
	for _, r := range h.owned {
		if r.tenant != tenant && lo < r.hi && r.lo < hi {
			return fmt.Errorf("rbb: queues [%d,%d) overlap tenant %d's [%d,%d)", lo, hi, r.tenant, r.lo, r.hi)
		}
	}
	h.owned = append(h.owned, queueRange{lo, hi, tenant})
	return nil
}

// ReleaseQueues returns queues [lo, hi) to the unowned pool — the host
// half of reclaiming retired tenant ranges on rebuild. Releasing
// unowned queues is a no-op.
func (h *HostRBB) ReleaseQueues(lo, hi int) {
	kept := h.owned[:0]
	for _, r := range h.owned {
		if r.lo < lo {
			kept = append(kept, queueRange{r.lo, min(r.hi, lo), r.tenant})
		}
		if r.hi > hi {
			kept = append(kept, queueRange{max(r.lo, hi), r.hi, r.tenant})
		}
	}
	h.owned = kept
}

// Owner reports the tenant owning a queue.
func (h *HostRBB) Owner(queue int) (int, bool) {
	for _, r := range h.owned {
		if r.lo <= queue && queue < r.hi {
			return r.tenant, true
		}
	}
	return 0, false
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

// QueueStats reports per-queue monitoring.
func (h *HostRBB) QueueStats(queue int) (pcie.QueueStats, error) {
	return h.Engine.QueueStats(queue)
}

// SetNative toggles native mode (no wrapper translation pipeline).
func (h *HostRBB) SetNative(on bool) { h.path.SetBypass(on) }
