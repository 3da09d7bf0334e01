package fleet

import (
	"strings"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/net"
	"harmonia/internal/sim"
)

const testSecApp = "sec-gateway"

// coResTestCluster builds a small two-service co-resident fleet —
// layer4-lb latency-critical, sec-gateway bulk — both of which fit the
// default slot budget.
func coResTestCluster(t *testing.T, cfg Config, devices int) *Cluster {
	t.Helper()
	lbInfo, err := apps.Lookup(testApp)
	if err != nil {
		t.Fatal(err)
	}
	secInfo, err := apps.Lookup(testSecApp)
	if err != nil {
		t.Fatal(err)
	}
	lb := AppService(lbInfo, devices, net.IPv4(20, 0, 0, 1))
	lb.Class = ClassLatencyCritical
	sec := AppService(secInfo, devices/2, net.IPv4(40, 0, 0, 1))
	sec.Class = ClassBulk
	c, err := BuildCoResidentCluster(cfg, []Service{lb, sec}, devices)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// coResTraffics is the two-service determinism workload: distinct seed
// streams, asymmetric rates.
func coResTraffics(seedBump int64) []Traffic {
	lb := DefaultTraffic(testApp)
	lb.OfferedGbps = 150
	lb.Seed += seedBump
	sec := DefaultTraffic(testSecApp)
	sec.OfferedGbps = 60
	sec.Flows = 128
	sec.Seed = lb.Seed + 1009
	return []Traffic{lb, sec}
}

// TestFlowCacheIsolation pins the per-(service, shard) flow cache
// contract: two co-resident services routing through the same shards
// keep disjoint dispatch views and caches — every cached candidate
// resolves to a replica of the owning service, never the neighbor's.
func TestFlowCacheIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RouterShards = 4
	c := coResTestCluster(t, cfg, 8)
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	if _, err := c.ServeMulti(200*sim.Microsecond, coResTraffics(0)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{testApp, testSecApp} {
		si := c.router.idx.svcs[name]
		if si == nil {
			t.Fatalf("service %s has no index", name)
		}
		cached := 0
		for s := range si.disp {
			d := &si.disp[s]
			for _, r := range d.reps {
				if r.Service != name {
					t.Fatalf("service %s shard %d dispatch view holds %s replica", name, s, r.Service)
				}
			}
			for _, e := range d.cache {
				if e.epoch != d.epoch || d.epoch == 0 {
					continue
				}
				cached++
				if e.a >= 0 && d.reps[e.a].Service != name {
					t.Fatalf("service %s shard %d cached candidate a is %s replica",
						name, s, d.reps[e.a].Service)
				}
				if e.b >= 0 && d.reps[e.b].Service != name {
					t.Fatalf("service %s shard %d cached candidate b is %s replica",
						name, s, d.reps[e.b].Service)
				}
			}
		}
		if cached == 0 {
			t.Errorf("service %s has no live flow-cache entries after serving", name)
		}
		if s := c.ServiceStats(name); s.Served == 0 {
			t.Errorf("service %s served nothing: %+v", name, s)
		}
	}
}

// TestAddServiceDuplicate pins the AddService error paths: a duplicate
// name and an unknown service class are both rejected before any
// cluster state moves.
func TestAddServiceDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := apps.Lookup(testApp)
	if err != nil {
		t.Fatal(err)
	}
	svc := AppService(info, 2, net.IPv4(20, 0, 0, 1))
	if err := c.AddService(svc); err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(svc); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate AddService err = %v, want already registered", err)
	}
	bad := svc
	bad.Name = "other"
	bad.Class = "interactive"
	if err := c.AddService(bad); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("bad-class AddService err = %v, want class error", err)
	}
	// The empty class normalizes to latency-critical.
	norm := svc
	norm.Name = "normalized"
	norm.VIPBase = net.IPv4(21, 0, 0, 1)
	if err := c.AddService(norm); err != nil {
		t.Fatal(err)
	}
	if got := c.services["normalized"].Class; got != ClassLatencyCritical {
		t.Errorf("empty class normalized to %q, want %q", got, ClassLatencyCritical)
	}
}

// TestElectiveDrainAndPreemption is the cluster-level priority-class
// contract: an elective scale-out queues behind the PR-load budget and
// drains at heartbeat barriers, while a failover admitted mid-drain
// preempts the queue — provable from the grant log.
func TestElectiveDrainAndPreemption(t *testing.T) {
	cfg := DefaultConfig()
	c := coResTestCluster(t, cfg, 8)
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	c.SetLoadBudget(1)
	start := c.Now()
	if err := c.ScaleService(start, testSecApp, 3); err != nil {
		t.Fatal(err)
	}
	// Budget 1: one elective starts immediately, two queue.
	if got := c.ElectivesQueued(); got != 2 {
		t.Fatalf("ElectivesQueued = %d after scale-out under budget 1, want 2", got)
	}
	if err := c.Kill(c.Nodes()[0].ID); err != nil {
		t.Fatal(err)
	}
	// Let the monitor confirm the death, fail over, and drain the
	// elective queue behind the failover grants.
	c.RunMonitorUntil(start + 50*sim.Millisecond)
	if got := c.ElectivesQueued(); got != 0 {
		t.Errorf("ElectivesQueued = %d after drain, want 0", got)
	}
	if got := c.LoadsPreempted(); got < 1 {
		t.Errorf("LoadsPreempted = %d, want >= 1", got)
	}
	if got := c.LoadBudgetPeak(); got > 1 {
		t.Errorf("LoadBudgetPeak = %d, budget 1 breached", got)
	}
	events := c.LoadEvents()
	var electives, failovers int
	pair := false
	for _, e := range events {
		switch e.Class {
		case LoadElective:
			electives++
		case LoadFailover:
			failovers++
		}
	}
	for _, f := range events {
		if f.Class != LoadFailover {
			continue
		}
		for _, e := range events {
			if e.Class == LoadElective && e.ReqAt < f.ReqAt && f.Start < e.Start {
				pair = true
			}
		}
	}
	if electives != 3 {
		t.Errorf("grant log holds %d elective grants, want 3", electives)
	}
	if failovers == 0 {
		t.Error("grant log holds no failover grants after a kill")
	}
	if !pair {
		t.Errorf("no preemption pair in grant log: %+v", events)
	}
	// Every scaled-out replica eventually landed.
	for _, r := range c.Replicas() {
		if r.Service == testSecApp && r.Node == "" {
			t.Errorf("replica %s still unplaced after drain", r.Name())
		}
	}
}

// TestCoResidencyDrill runs the fleet8 drill at its tentpole
// configuration: every acceptance gate the result evaluates must hold,
// and the evidence behind them must be real.
func TestCoResidencyDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet8 drill is seconds-long; skipped in -short")
	}
	res, err := CoResidencyDrill(DrillOptions{Devices: 120, Budget: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Failures(); len(f) != 0 {
		t.Errorf("gates failed: %v (services %+v, fleet %.6f, shed %d/%d/%d, preempted %d, pairs %d, peak %d/%d)",
			f, res.Services, res.FleetAvailability, res.ShedOrderProofs, res.ShedOrderViolations,
			res.LCShed, res.LoadsPreempted, len(res.PreemptionPairs), res.PeakConcurrentLoads, res.Budget)
	}
	if len(res.Services) != 3 {
		t.Fatalf("drill ran %d services, want 3", len(res.Services))
	}
	for _, s := range res.Services {
		if s.Sent == 0 || s.Served == 0 {
			t.Errorf("service %s saw no traffic: %+v", s.Name, s)
		}
	}
	for _, p := range res.PreemptionPairs {
		if p.ElectiveReqAt >= p.FailoverReqAt || p.FailoverStart >= p.ElectiveStart {
			t.Errorf("invalid preemption pair: %+v", p)
		}
	}
	if res.Failovers == 0 {
		t.Error("storm produced no failovers")
	}
	if len(res.Windows) == 0 {
		t.Fatal("drill recorded no windows")
	}
	banded := 0
	for _, w := range res.Windows {
		banded += w.BulkShedNodes
	}
	if banded == 0 {
		t.Error("no window saw a node inside the bulk-shed band")
	}
}
