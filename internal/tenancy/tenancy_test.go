package tenancy

import (
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/net"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
)

func newManager(t *testing.T) (*Manager, *rbb.NetworkRBB, *rbb.HostRBB) {
	t.Helper()
	clk := apps.UserClock()
	n, err := rbb.NewNetwork(platform.Xilinx, ip.Speed100G, clk, apps.UserWidth)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rbb.NewHost(platform.Xilinx, 4, 16, ip.SGDMA, clk, apps.UserWidth)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(DefaultSlotConfig(), n.Director, h)
	if err != nil {
		t.Fatal(err)
	}
	return m, n, h
}

func smallLogic() hdl.Resources {
	return hdl.Resources{LUT: 50_000, REG: 70_000, BRAM: 90, DSP: 100}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(SlotConfig{}, nil, nil); err == nil {
		t.Error("invalid config accepted")
	}
	clk := apps.UserClock()
	h, _ := rbb.NewHost(platform.Xilinx, 4, 16, ip.SGDMA, clk, apps.UserWidth)
	n, _ := rbb.NewNetwork(platform.Xilinx, ip.Speed100G, clk, apps.UserWidth)
	cfg := DefaultSlotConfig()
	cfg.QueuesPerTenant = 10_000 // exceeds hardware queues
	if _, err := NewManager(cfg, n.Director, h); err == nil {
		t.Error("queue overcommit accepted")
	}
}

func TestAdmitAllocatesIsolatedResources(t *testing.T) {
	m, _, h := newManager(t)
	vipA := net.IPv4(20, 0, 0, 1)
	vipB := net.IPv4(20, 0, 0, 2)
	a, err := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{vipA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Admit(0, "tenant-b", smallLogic(), []net.IPAddr{vipB})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint queue ranges and distinct slots.
	if a.QueueHi > b.QueueLo && b.QueueHi > a.QueueLo {
		t.Errorf("queue ranges overlap: %+v vs %+v", a, b)
	}
	if a.Slot == b.Slot {
		t.Error("tenants share a PR slot")
	}
	// Host RBB queue ownership matches.
	for _, tn := range []*Tenant{a, b} {
		for _, q := range []int{tn.QueueLo, tn.QueueHi - 1} {
			if owner, ok := h.Owner(q); !ok || owner != tn.ID {
				t.Errorf("queue %d owner = %d, want %d", q, owner, tn.ID)
			}
		}
	}
	// A range straddling the two tenants' ranges belongs to neither.
	if err := h.AssignQueues(a.QueueHi-1, b.QueueLo+1, b.ID+1); err == nil {
		t.Error("host accepted a range straddling two tenants")
	}
	if m.FreeSlots() != DefaultSlotConfig().Slots-2 {
		t.Errorf("FreeSlots = %d", m.FreeSlots())
	}
	if len(m.Tenants()) != 2 {
		t.Errorf("Tenants = %d", len(m.Tenants()))
	}
}

func TestTrafficIsolation(t *testing.T) {
	m, _, _ := newManager(t)
	vipA := net.IPv4(20, 0, 0, 1)
	vipB := net.IPv4(20, 0, 0, 2)
	a, _ := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{vipA})
	b, _ := m.Admit(0, "tenant-b", smallLogic(), []net.IPAddr{vipB})

	for port := uint16(1000); port < 1200; port++ {
		pa := &net.Packet{DstIP: vipA, SrcIP: net.IPv4(1, 1, 1, 1), Proto: net.ProtoTCP, SrcPort: port, DstPort: 80}
		q, tn, err := m.Route(pa)
		if err != nil {
			t.Fatal(err)
		}
		if tn.ID != a.ID || q < a.QueueLo || q >= a.QueueHi {
			t.Fatalf("tenant-a flow routed to queue %d of tenant %d", q, tn.ID)
		}
		pb := &net.Packet{DstIP: vipB, SrcIP: net.IPv4(1, 1, 1, 1), Proto: net.ProtoTCP, SrcPort: port, DstPort: 80}
		q, tn, err = m.Route(pb)
		if err != nil {
			t.Fatal(err)
		}
		if tn.ID != b.ID || q < b.QueueLo || q >= b.QueueHi {
			t.Fatalf("tenant-b flow routed to queue %d of tenant %d", q, tn.ID)
		}
	}
}

func TestAdmitRejectsOversizedLogic(t *testing.T) {
	m, _, _ := newManager(t)
	huge := hdl.Resources{LUT: 500_000}
	if _, err := m.Admit(0, "huge", huge, nil); err == nil {
		t.Error("oversized tenant admitted")
	}
}

func TestSlotExhaustion(t *testing.T) {
	m, _, _ := newManager(t)
	for i := 0; i < DefaultSlotConfig().Slots; i++ {
		if _, err := m.Admit(0, "t", smallLogic(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Admit(0, "overflow", smallLogic(), nil); err == nil {
		t.Error("admission beyond slot count succeeded")
	}
}

func TestEvictFreesSlotOnly(t *testing.T) {
	m, _, _ := newManager(t)
	vipA := net.IPv4(20, 0, 0, 1)
	vipB := net.IPv4(20, 0, 0, 2)
	a, _ := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{vipA})
	b, _ := m.Admit(0, "tenant-b", smallLogic(), []net.IPAddr{vipB})

	done, err := m.Evict(sim.Second, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done <= sim.Second {
		t.Error("eviction reconfiguration took no time")
	}
	if m.FreeSlots() != DefaultSlotConfig().Slots-1 {
		t.Errorf("FreeSlots after evict = %d", m.FreeSlots())
	}
	// Tenant B keeps running: its traffic still routes.
	pb := &net.Packet{DstIP: vipB, SrcIP: net.IPv4(2, 2, 2, 2), Proto: net.ProtoTCP, SrcPort: 99, DstPort: 80}
	if _, tn, err := m.Route(pb); err != nil || tn.ID != b.ID {
		t.Errorf("tenant-b disturbed by eviction: %v", err)
	}
	// Evicting twice fails.
	if _, err := m.Evict(0, a.ID); err == nil {
		t.Error("double eviction succeeded")
	}
	// A new tenant reuses the freed slot with fresh queues.
	c, err := m.Admit(done, "tenant-c", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Slot != a.Slot {
		t.Errorf("tenant-c slot = %d, want freed slot %d", c.Slot, a.Slot)
	}
	if c.QueueLo < a.QueueHi {
		t.Error("queue range recycled across tenants")
	}
}

func TestReconfigurationTiming(t *testing.T) {
	m, _, _ := newManager(t)
	a, _ := m.Admit(0, "a", smallLogic(), nil)
	if a.ReadyAt != DefaultSlotConfig().ReconfigTime {
		t.Errorf("ReadyAt = %v, want %v", a.ReadyAt, DefaultSlotConfig().ReconfigTime)
	}
	if _, ok := m.Owner(a.QueueLo); !ok {
		t.Error("Owner lookup failed")
	}
	if _, ok := m.Owner(9999); ok {
		t.Error("Owner(9999) should miss")
	}
}

func TestAdmitRetriesFailedLoads(t *testing.T) {
	m, _, _ := newManager(t)
	m.cfg.LoadRetries = 3
	m.cfg.LoadBackoff = 100 * sim.Microsecond
	failures := 2
	m.SetLoadFault(func(tenant string, slot, attempt int) bool {
		return attempt < failures
	})
	tn, err := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 1)})
	if err != nil {
		t.Fatalf("Admit within retry budget failed: %v", err)
	}
	if tn.LoadAttempts != failures+1 {
		t.Errorf("LoadAttempts = %d, want %d", tn.LoadAttempts, failures+1)
	}
	if m.LoadFailures() != int64(failures) {
		t.Errorf("LoadFailures = %d, want %d", m.LoadFailures(), failures)
	}
	// Each failed load held the slot for a full reconfiguration plus an
	// exponentially growing backoff: 2 failures cost 2*Reconfig +
	// (backoff<<0 + backoff<<1), then the successful load.
	rc := m.cfg.ReconfigTime
	bo := m.cfg.LoadBackoff
	want := 2*rc + bo + 2*bo + rc
	if tn.ReadyAt != want {
		t.Errorf("ReadyAt = %v, want %v", tn.ReadyAt, want)
	}
}

func TestAdmitExhaustsLoadRetries(t *testing.T) {
	m, _, h := newManager(t)
	m.cfg.LoadRetries = 1
	m.SetLoadFault(func(tenant string, slot, attempt int) bool { return true })
	_, err := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 1)})
	if err == nil {
		t.Fatal("Admit succeeded despite every load failing")
	}
	le, ok := err.(*LoadError)
	if !ok {
		t.Fatalf("error is %T, want *LoadError", err)
	}
	if le.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", le.Attempts)
	}
	if le.BusyUntil <= 0 {
		t.Errorf("BusyUntil = %v, want > 0 (slot digested failed loads)", le.BusyUntil)
	}
	// The failed admission must not leak resources: the slot stays free
	// and no host queue was burned.
	if m.FreeSlots() != m.cfg.Slots {
		t.Errorf("FreeSlots = %d after failed admit, want %d", m.FreeSlots(), m.cfg.Slots)
	}
	if owner, ok := h.Owner(0); ok {
		t.Errorf("queue 0 assigned to tenant %d after failed admit", owner)
	}
	// A later admission reuses the slot once it drains.
	m.SetLoadFault(nil)
	tn, err := m.Admit(le.BusyUntil, "tenant-b", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 2)})
	if err != nil {
		t.Fatalf("re-admission after failed loads: %v", err)
	}
	if tn.LoadAttempts != 1 {
		t.Errorf("LoadAttempts = %d, want 1", tn.LoadAttempts)
	}
}

func TestAdmitWaitsOutBusySlotFromFailedLoad(t *testing.T) {
	m, _, _ := newManager(t)
	m.cfg.Slots = 1
	m.slots = m.slots[:1]
	m.SetLoadFault(func(tenant string, slot, attempt int) bool { return tenant == "doomed" })
	_, err := m.Admit(0, "doomed", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 1)})
	le, ok := err.(*LoadError)
	if !ok {
		t.Fatalf("error is %T, want *LoadError", err)
	}
	// Admitting again before the slot drains queues behind the failed
	// load rather than overlapping it.
	tn, err := m.Admit(0, "tenant-b", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if want := le.BusyUntil + m.cfg.ReconfigTime; tn.ReadyAt != want {
		t.Errorf("ReadyAt = %v, want %v (queued behind failed load)", tn.ReadyAt, want)
	}
}

func TestQueueExhaustionGuard(t *testing.T) {
	m, _, _ := newManager(t)
	// Burn the queue horizon through admit/evict cycles: retired ranges
	// are never recycled, so the horizon only grows.
	cycles := 0
	for ; m.CanAllocate(); cycles++ {
		if cycles > 1000 {
			t.Fatal("queue horizon never exhausted")
		}
		tn, err := m.Admit(0, "churn", smallLogic(), nil)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycles, err)
		}
		if _, err := m.Evict(0, tn.ID); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeSlots() != m.cfg.Slots {
		t.Fatalf("FreeSlots = %d, want all %d free", m.FreeSlots(), m.cfg.Slots)
	}
	// Slots are free but the queues are gone: admission must fail before
	// touching the director or host.
	if _, err := m.Admit(0, "late", smallLogic(), nil); err == nil {
		t.Fatal("admission succeeded on a queue-exhausted manager")
	}
	if got := m.QueuesRetired(); got != cycles*m.cfg.QueuesPerTenant {
		t.Errorf("QueuesRetired = %d, want %d", got, cycles*m.cfg.QueuesPerTenant)
	}
	if m.QueueHorizon() != m.QueuesRetired() {
		t.Errorf("horizon %d != retired %d with no tenants admitted",
			m.QueueHorizon(), m.QueuesRetired())
	}
}

func TestRebuildReclaimsRetiredQueues(t *testing.T) {
	m, _, h := newManager(t)
	a, err := m.Admit(0, "tenant-a", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Admit(0, "tenant-b", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evict(0, a.ID); err != nil {
		t.Fatal(err)
	}
	// A rebuild refuses while a tenant still runs: its live queue range
	// cannot be moved underneath it.
	if _, err := m.Rebuild(); err == nil {
		t.Fatal("rebuild succeeded with a tenant still admitted")
	}
	if _, err := m.Evict(0, b.ID); err != nil {
		t.Fatal(err)
	}
	horizon := m.QueueHorizon()
	reclaimed, err := m.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != horizon {
		t.Errorf("reclaimed %d queues, want the whole horizon %d", reclaimed, horizon)
	}
	if m.QueuesRetired() != 0 || m.QueueHorizon() != 0 {
		t.Errorf("retired %d, horizon %d after rebuild, want 0/0",
			m.QueuesRetired(), m.QueueHorizon())
	}
	if owner, ok := h.Owner(0); ok {
		t.Errorf("queue 0 still owned by tenant %d after rebuild", owner)
	}
	// The allocator restarts at zero but tenant IDs stay monotonic, so
	// new table IDs never collide with a predecessor's.
	c, err := m.Admit(0, "tenant-c", smallLogic(), []net.IPAddr{net.IPv4(20, 0, 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if c.QueueLo != 0 {
		t.Errorf("post-rebuild QueueLo = %d, want 0", c.QueueLo)
	}
	if c.ID <= b.ID {
		t.Errorf("tenant ID %d not monotonic past %d after rebuild", c.ID, b.ID)
	}
}
