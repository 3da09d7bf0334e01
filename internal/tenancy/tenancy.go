// Package tenancy implements the multi-tenancy support discussed in §6:
// partial-reconfiguration slots in the role region, per-tenant traffic
// isolation through the Network RBB's flow director, and independent
// host DMA queues per tenant. Admitting or evicting one tenant
// reconfigures only its slot; co-resident tenants keep running.
package tenancy

import (
	"fmt"
	"sort"

	"harmonia/internal/hdl"
	"harmonia/internal/net"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
)

// SlotConfig shapes the role region's partial-reconfiguration layout.
type SlotConfig struct {
	// Slots is the number of PR slots the role region is divided into.
	Slots int
	// SlotRes is the resource budget of one slot.
	SlotRes hdl.Resources
	// ReconfigTime is the partial-bitstream load time per slot.
	ReconfigTime sim.Time
	// QueuesPerTenant is each tenant's host-queue allocation.
	QueuesPerTenant int
	// LoadRetries bounds how often a failed partial-bitstream load is
	// retried on the same slot before Admit gives up with a LoadError.
	LoadRetries int
	// LoadBackoff is the delay before the first load retry; it doubles
	// per attempt (exponential backoff). Zero retries immediately.
	LoadBackoff sim.Time
}

// DefaultSlotConfig returns a typical four-slot layout.
func DefaultSlotConfig() SlotConfig {
	return SlotConfig{
		Slots:           4,
		SlotRes:         hdl.Resources{LUT: 120_000, REG: 180_000, BRAM: 260, URAM: 32, DSP: 720},
		ReconfigTime:    8 * sim.Millisecond,
		QueuesPerTenant: 64,
	}
}

// Tenant is one admitted user sharing the FPGA.
type Tenant struct {
	ID   int
	Name string
	Slot int
	// QueueLo/QueueHi is the tenant's host queue range [lo, hi).
	QueueLo, QueueHi int
	// VIPs are the addresses whose traffic the flow director steers to
	// this tenant.
	VIPs []net.IPAddr
	// ReadyAt is when the slot's partial reconfiguration completes.
	ReadyAt sim.Time
	// LoadAttempts is how many bitstream loads the slot took (1 = the
	// first load succeeded; more mean injected load failures retried).
	LoadAttempts int
}

// LoadFault decides whether one partial-bitstream load attempt fails.
// Fault injection installs it via SetLoadFault; attempt counts from
// zero. Implementations must be deterministic in their arguments so
// seeded runs reproduce.
type LoadFault func(tenant string, slot, attempt int) bool

// LoadError reports a partial-bitstream load that failed on every
// permitted attempt. The slot was busy for the failed loads (BusyUntil)
// but no tenant was admitted — callers fall back to re-placement on
// another device.
type LoadError struct {
	Tenant   string
	Slot     int
	Attempts int
	// BusyUntil is when the slot finishes digesting the failed loads.
	BusyUntil sim.Time
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("tenancy: bitstream load for %s failed on slot %d after %d attempts",
		e.Tenant, e.Slot, e.Attempts)
}

type slot struct {
	occupant  int // -1 when free
	busyUntil sim.Time
}

// Manager multiplexes tenants over one deployment's RBBs.
type Manager struct {
	cfg      SlotConfig
	director *rbb.FlowDirector
	host     *rbb.HostRBB
	slots    []slot
	tenants  map[int]*Tenant
	nextID   int
	nextQ    int
	// loadFault, when set, decides per-attempt bitstream load failures.
	loadFault    LoadFault
	loadFailures int64
}

// SetLoadFault installs (or, with nil, removes) the bitstream
// load-failure injector consulted on every Admit attempt.
func (m *Manager) SetLoadFault(fn LoadFault) { m.loadFault = fn }

// LoadFailures reports how many bitstream load attempts failed.
func (m *Manager) LoadFailures() int64 { return m.loadFailures }

// NewManager returns a manager over the Network RBB's flow director and
// the Host RBB.
func NewManager(cfg SlotConfig, director *rbb.FlowDirector, host *rbb.HostRBB) (*Manager, error) {
	if cfg.Slots <= 0 || cfg.QueuesPerTenant <= 0 {
		return nil, fmt.Errorf("tenancy: invalid slot config %+v", cfg)
	}
	if director == nil || host == nil {
		return nil, fmt.Errorf("tenancy: manager requires a flow director and a host RBB")
	}
	if cfg.Slots*cfg.QueuesPerTenant > host.Spec().QueueCount {
		return nil, fmt.Errorf("tenancy: %d slots x %d queues exceed the %d hardware queues",
			cfg.Slots, cfg.QueuesPerTenant, host.Spec().QueueCount)
	}
	slots := make([]slot, cfg.Slots)
	for i := range slots {
		slots[i].occupant = -1
	}
	return &Manager{
		cfg:      cfg,
		director: director,
		host:     host,
		slots:    slots,
		tenants:  make(map[int]*Tenant),
	}, nil
}

// FreeSlots reports how many PR slots are unoccupied.
func (m *Manager) FreeSlots() int {
	n := 0
	for _, s := range m.slots {
		if s.occupant < 0 {
			n++
		}
	}
	return n
}

// Tenants lists admitted tenants sorted by ID.
func (m *Manager) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Admit places a tenant: checks its logic fits a slot's budget,
// partially reconfigures the slot, allocates an isolated queue range
// and programs the flow director. Other tenants are untouched.
//
// A bitstream load can fail (the injected LoadFault decides): each
// failed attempt still occupies the slot for ReconfigTime, then the
// load is retried after an exponentially growing backoff, up to
// LoadRetries times. Exhausting the retries returns a *LoadError — the
// slot stays free (no tenant was created, no queues were burned) but
// busy until the failed loads drain, and the caller re-places the
// tenant elsewhere.
func (m *Manager) Admit(now sim.Time, name string, logic hdl.Resources, vips []net.IPAddr) (*Tenant, error) {
	if logic.Utilization(m.cfg.SlotRes) > 1 {
		return nil, fmt.Errorf("tenancy: %s needs more than one slot's budget (%s > %s)",
			name, logic.String(), m.cfg.SlotRes.String())
	}
	slotIdx := -1
	for i, s := range m.slots {
		if s.occupant < 0 {
			slotIdx = i
			break
		}
	}
	if slotIdx < 0 {
		return nil, fmt.Errorf("tenancy: no free slot for %s (have %d tenants)", name, len(m.tenants))
	}
	// Queue exhaustion must fail before anything is allocated or loaded:
	// retired ranges are never recycled, so a long-lived manager can run
	// out of queues while slots are still free. Failing here keeps the
	// director and host untouched (no leaked rules or ownership).
	if m.nextQ+m.cfg.QueuesPerTenant > m.host.Spec().QueueCount {
		return nil, fmt.Errorf("tenancy: host queues exhausted for %s: need [%d,%d) of %d (retired ranges are not recycled; rebuild the node to reclaim)",
			name, m.nextQ, m.nextQ+m.cfg.QueuesPerTenant, m.host.Spec().QueueCount)
	}

	// Run the load attempts before allocating anything: a load that
	// fails its whole retry budget must not leak director rules or
	// retire host queues.
	start := now
	if m.slots[slotIdx].busyUntil > start {
		start = m.slots[slotIdx].busyUntil
	}
	attempts := 1
	for attempt := 0; m.loadFault != nil && m.loadFault(name, slotIdx, attempt); attempt++ {
		m.loadFailures++
		if attempt >= m.cfg.LoadRetries {
			busy := start + m.cfg.ReconfigTime // the last failed load
			m.slots[slotIdx].busyUntil = busy
			return nil, &LoadError{Tenant: name, Slot: slotIdx, Attempts: attempts, BusyUntil: busy}
		}
		// The failed load held the slot for a full reconfiguration; back
		// off exponentially before retrying on the same slot.
		start += m.cfg.ReconfigTime + m.cfg.LoadBackoff<<attempt
		attempts++
	}

	id := m.nextID
	m.nextID++
	lo := m.nextQ
	hi := lo + m.cfg.QueuesPerTenant
	if err := m.director.AddTenant(id, lo, hi); err != nil {
		return nil, err
	}
	for _, vip := range vips {
		if err := m.director.AddRule(vip, id); err != nil {
			return nil, err
		}
	}
	if err := m.host.AssignQueues(lo, hi, id); err != nil {
		return nil, err
	}
	m.nextQ = hi

	// Partial reconfiguration occupies only this slot.
	ready := start + m.cfg.ReconfigTime
	m.slots[slotIdx] = slot{occupant: id, busyUntil: ready}

	t := &Tenant{
		ID: id, Name: name, Slot: slotIdx,
		QueueLo: lo, QueueHi: hi,
		VIPs:         append([]net.IPAddr(nil), vips...),
		ReadyAt:      ready,
		LoadAttempts: attempts,
	}
	m.tenants[id] = t
	return t, nil
}

// Evict removes a tenant, freeing its slot (after a reconfiguration to
// the blank image). Its queue range is retired, not recycled — hardware
// queue reuse across tenants would leak state.
func (m *Manager) Evict(now sim.Time, tenantID int) (sim.Time, error) {
	t, ok := m.tenants[tenantID]
	if !ok {
		return now, fmt.Errorf("tenancy: unknown tenant %d", tenantID)
	}
	done := now + m.cfg.ReconfigTime
	m.slots[t.Slot] = slot{occupant: -1, busyUntil: done}
	delete(m.tenants, tenantID)
	return done, nil
}

// CanAllocate reports whether another tenant's queue range still fits
// under the hardware queue count — the placement-time check that keeps
// schedulers off queue-exhausted nodes.
func (m *Manager) CanAllocate() bool {
	return m.nextQ+m.cfg.QueuesPerTenant <= m.host.Spec().QueueCount
}

// QueueHorizon reports the allocation high-water mark: every queue
// below it has been handed to some tenant, active or retired.
func (m *Manager) QueueHorizon() int { return m.nextQ }

// QueuesRetired reports how many host queues past evictions have
// stranded: the allocation horizon minus what active tenants still own.
// It only shrinks on Rebuild.
func (m *Manager) QueuesRetired() int {
	return m.nextQ - len(m.tenants)*m.cfg.QueuesPerTenant
}

// Rebuild resets the queue allocator after a full drain, reclaiming
// every retired range: director entries and rules for all past tenant
// IDs are scrubbed, host queue ownership below the horizon is released,
// and the horizon returns to zero. It refuses while tenants remain —
// live queue ranges cannot be moved under a running tenant. Tenant IDs
// stay monotonic across rebuilds so per-tenant table IDs never collide
// with a predecessor's.
func (m *Manager) Rebuild() (reclaimed int, err error) {
	if len(m.tenants) != 0 {
		return 0, fmt.Errorf("tenancy: rebuild with %d tenants still admitted", len(m.tenants))
	}
	reclaimed = m.nextQ
	for id := 0; id < m.nextID; id++ {
		m.director.RemoveTenant(id)
	}
	m.host.ReleaseQueues(0, m.nextQ)
	m.nextQ = 0
	return reclaimed, nil
}

// Owner reports which tenant owns a host queue.
func (m *Manager) Owner(queue int) (*Tenant, bool) {
	for _, t := range m.tenants {
		if queue >= t.QueueLo && queue < t.QueueHi {
			return t, true
		}
	}
	return nil, false
}

// ResolveSteering resolves the director's steering decision for a
// destination address once, returning the matched tenant's queue range
// [lo, lo+span). It fails exactly when Route would fail for any packet
// of such a flow — no tenant, retired tenant, or a director range
// escaping the tenant's isolation range — which is what lets a caller
// cache the range at a control-plane barrier and derive per-flow
// queues from the flow hash without re-running the lookups per packet.
func (m *Manager) ResolveSteering(dst net.IPAddr) (lo, span int, err error) {
	dlo, dhi, tenantID, ok := m.director.Resolve(dst)
	if !ok {
		return 0, 0, fmt.Errorf("tenancy: no tenant for flow to %s", dst)
	}
	tn, exists := m.tenants[tenantID]
	if !exists {
		return 0, 0, fmt.Errorf("tenancy: director matched retired tenant %d", tenantID)
	}
	if dlo < tn.QueueLo || dhi > tn.QueueHi {
		return 0, 0, fmt.Errorf("tenancy: isolation violation: steering range [%d,%d) outside [%d,%d)",
			dlo, dhi, tn.QueueLo, tn.QueueHi)
	}
	return dlo, dhi - dlo, nil
}

// Route steers a packet to its tenant's queue range via the flow
// director and verifies the isolation invariant: the selected queue
// must belong to the matched tenant.
func (m *Manager) Route(p *net.Packet) (queue int, t *Tenant, err error) {
	q, tenantID, ok := m.director.Direct(p)
	if !ok {
		return 0, nil, fmt.Errorf("tenancy: no tenant for flow to %s", p.DstIP)
	}
	tn, exists := m.tenants[tenantID]
	if !exists {
		return 0, nil, fmt.Errorf("tenancy: director matched retired tenant %d", tenantID)
	}
	if q < tn.QueueLo || q >= tn.QueueHi {
		return 0, nil, fmt.Errorf("tenancy: isolation violation: queue %d outside [%d,%d)",
			q, tn.QueueLo, tn.QueueHi)
	}
	return q, tn, nil
}
