// Package faults is the deterministic chaos plane: it generates
// seeded, discrete-event schedules of *correlated* failures for the
// fleet simulation. Where the single-fault drills (fleet2/fleet4) kill
// exactly one node, a storm models how cloud FPGA fleets actually fail
// — a rack power event takes N nodes inside one heartbeat window, a
// link flaps repeatedly, partial-bitstream loads fail under pressure,
// a cooling failure ramps a die into thermal alarm, and a marginal
// cable corrupts command packets in bursts.
//
// Everything is derived from one seed: Storm expands a StormSpec into
// a flat, time-sorted injection list, every injection tagged with its
// time, so any run — and any side-by-side comparison of defenses over
// the same storm — reproduces from a single line. The package knows
// nothing about the fleet; injections target node *indexes* and the
// drill maps them onto commissioned devices.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"harmonia/internal/obs"
	"harmonia/internal/sim"
)

// Kind classifies one injection.
type Kind string

// The fault taxonomy.
const (
	// KillNode silently kills a device: its command wire corrupts on
	// every attempt, so it stops answering heartbeats (rack power loss).
	KillNode Kind = "kill"
	// LinkDown severs a device's network link (irq-path EventLinkDown);
	// LinkUp restores it — a drained device rejoins the fleet empty.
	LinkDown Kind = "link-down"
	LinkUp   Kind = "link-up"
	// ThermalSet injects a die-temperature offset (Arg, milli-degC);
	// ramps issue a staircase of these until the alarm threshold.
	ThermalSet Kind = "thermal-set"
	// CorruptStart corrupts the first Arg attempts of every command on
	// the node's wire until CorruptEnd — retransmissions without loss
	// when Arg stays within the driver's retry budget.
	CorruptStart Kind = "corrupt-start"
	CorruptEnd   Kind = "corrupt-end"
	// PRFaultStart makes partial-bitstream loads fail fleet-wide with
	// probability Prob until PRFaultEnd.
	PRFaultStart Kind = "pr-fault-start"
	PRFaultEnd   Kind = "pr-fault-end"
	// DrainBackend removes backend #Arg from the stateful service's
	// pool mid-storm, so re-pinned flows can land on different backends
	// than established ones — what makes flow disruption measurable.
	DrainBackend Kind = "drain-backend"

	// Migration-targeted injections: each arms a one-shot latch in the
	// cluster that fires when the *next* rebalance move reaches the
	// matching phase, so the fault lands mid-migration deterministically
	// regardless of when the move was planned. Node is ignored (-1): the
	// move's own source/target are the victims.
	//
	// RebalanceKillSource kills the move's source node the moment
	// pre-copy starts — the table read fails, retries exhaust, and the
	// health monitor independently fails the node over via the
	// snapshot-fallback path.
	RebalanceKillSource Kind = "rebalance-kill-source"
	// RebalanceKillTarget kills the move's target node before cutover —
	// the delta writes fail and the move aborts back to the
	// still-serving source.
	RebalanceKillTarget Kind = "rebalance-kill-target"
	// RebalanceCorruptDelta flips one word of the next delta frame in
	// transit, forcing a decode error on import and a bounded retry with
	// a clean resend.
	RebalanceCorruptDelta Kind = "rebalance-corrupt-delta"
	// RebalanceStallRead stalls the next pre-copy TableRead past the
	// phase timeout, burning one retry attempt.
	RebalanceStallRead Kind = "rebalance-stall-read"
)

// Injection is one scheduled fault. Node is a commission index into
// the fleet (-1 for fleet-wide faults); Arg and Prob are
// kind-specific parameters.
type Injection struct {
	At   sim.Time
	Kind Kind
	Node int
	Arg  uint32
	Prob float64
}

// String formats an injection for operator logs.
func (i Injection) String() string {
	switch i.Kind {
	case ThermalSet, CorruptStart, DrainBackend:
		return fmt.Sprintf("%v %s node=%d arg=%d", i.At, i.Kind, i.Node, i.Arg)
	case PRFaultStart:
		return fmt.Sprintf("%v %s p=%.2f", i.At, i.Kind, i.Prob)
	case PRFaultEnd:
		return fmt.Sprintf("%v %s", i.At, i.Kind)
	case RebalanceKillSource, RebalanceKillTarget, RebalanceCorruptDelta, RebalanceStallRead:
		return fmt.Sprintf("%v %s (latched)", i.At, i.Kind)
	default:
		return fmt.Sprintf("%v %s node=%d", i.At, i.Kind, i.Node)
	}
}

// StormSpec shapes one correlated failure storm. Zero values disable
// the corresponding fault family.
type StormSpec struct {
	// Nodes is the fleet size the schedule targets.
	Nodes int
	// Seed drives every random choice (targets, jitter).
	Seed int64
	// Start is the storm's absolute start time on the cluster clock.
	Start sim.Time

	// RackSize groups nodes into contiguous racks of this many; the
	// power event takes one whole rack.
	RackSize int
	// RackAt is the power event's offset from Start; the individual
	// node deaths spread over RackWindow (one heartbeat window, so the
	// monitor sees them as one correlated burst).
	RackAt     sim.Time
	RackWindow sim.Time

	// FlapNodes links flap: each goes down/up Flaps times, FlapGap
	// apart, starting at Start.
	FlapNodes int
	Flaps     int
	FlapGap   sim.Time

	// ThermalNodes ramp: ThermalStep milli-degC every ThermalEvery,
	// ThermalSteps times (a runaway climbing past the alarm), cooling
	// back to nominal at ThermalCoolAt (offset from Start; 0 = never).
	ThermalNodes  int
	ThermalStep   uint32
	ThermalEvery  sim.Time
	ThermalSteps  int
	ThermalCoolAt sim.Time

	// CorruptNodes get a command-corruption burst: the first
	// CorruptAttempts attempts of every command corrupt for CorruptFor.
	CorruptNodes    int
	CorruptAttempts int
	CorruptFor      sim.Time

	// PRFailProb makes bitstream loads fail with this probability for
	// PRFailFor — pressure on exactly the path mass failover leans on.
	PRFailProb float64
	PRFailFor  sim.Time

	// DrainBackendAt (offset from Start, 0 = never) removes
	// DrainBackendIdx from the stateful backend pool.
	DrainBackendAt  sim.Time
	DrainBackendIdx int
}

// DefaultStorm returns the fleet5 storm script scaled to a fleet size:
// one rack lost to power, link flaps, thermal runaways, command
// corruption bursts, fleet-wide PR-load failures and a mid-storm
// backend drain.
func DefaultStorm(nodes int, seed int64) StormSpec {
	rackSize := nodes / 15
	if rackSize < 2 {
		rackSize = 2
	}
	atLeast := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	return StormSpec{
		Nodes: nodes,
		Seed:  seed,

		RackSize:   rackSize,
		RackAt:     50 * sim.Microsecond,
		RackWindow: 50 * sim.Microsecond,

		FlapNodes: atLeast(nodes / 50),
		Flaps:     2,
		FlapGap:   200 * sim.Microsecond,

		ThermalNodes:  atLeast(nodes / 75),
		ThermalStep:   6_000,
		ThermalEvery:  50 * sim.Microsecond,
		ThermalSteps:  10,
		ThermalCoolAt: 1500 * sim.Microsecond,

		CorruptNodes:    atLeast(nodes / 40),
		CorruptAttempts: 2,
		CorruptFor:      300 * sim.Microsecond,

		PRFailProb: 0.25,
		PRFailFor:  6 * sim.Millisecond,

		DrainBackendAt:  100 * sim.Microsecond,
		DrainBackendIdx: 0,
	}
}

// Schedule is one expanded storm: the injection list, time-sorted,
// plus the seed that reproduces it.
type Schedule struct {
	Seed int64
	Spec StormSpec
	// Injections is sorted by (At, Node, Kind) — a total, deterministic
	// order.
	Injections []Injection
	// Rack is the node index set the power event kills; Flapped,
	// Ramped and Corrupted are the other target sets, for the drill's
	// per-family measurements.
	Rack, Flapped, Ramped, Corrupted []int
}

// Storm expands a spec into a deterministic schedule. Target sets are
// disjoint: the rack is drawn first, then flap/thermal/corrupt targets
// from the remaining nodes, so each fault family's effect is
// measurable on its own.
func Storm(spec StormSpec) (*Schedule, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("faults: storm needs a fleet size, got %d", spec.Nodes)
	}
	if spec.RackSize > 0 && spec.RackSize > spec.Nodes {
		return nil, fmt.Errorf("faults: rack of %d exceeds the %d-node fleet", spec.RackSize, spec.Nodes)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	s := &Schedule{Seed: spec.Seed, Spec: spec}

	taken := make(map[int]bool)
	// Rack power loss: one contiguous rack, deaths jittered inside the
	// heartbeat window.
	if spec.RackSize > 0 {
		racks := spec.Nodes / spec.RackSize
		if racks == 0 {
			racks = 1
		}
		rack := rng.Intn(racks)
		for i := 0; i < spec.RackSize; i++ {
			node := rack*spec.RackSize + i
			if node >= spec.Nodes {
				break
			}
			taken[node] = true
			s.Rack = append(s.Rack, node)
			at := spec.Start + spec.RackAt
			if spec.RackWindow > 0 {
				at += sim.Time(rng.Int63n(int64(spec.RackWindow)))
			}
			s.add(Injection{At: at, Kind: KillNode, Node: node})
		}
	}

	// The remaining families draw disjoint targets from the survivors.
	pick := func(count int) []int {
		var out []int
		for _, node := range rng.Perm(spec.Nodes) {
			if len(out) == count {
				break
			}
			if taken[node] {
				continue
			}
			taken[node] = true
			out = append(out, node)
		}
		sort.Ints(out)
		return out
	}

	s.Flapped = pick(spec.FlapNodes)
	for _, node := range s.Flapped {
		at := spec.Start + sim.Time(rng.Int63n(int64(spec.FlapGap)+1))
		for f := 0; f < spec.Flaps; f++ {
			s.add(Injection{At: at, Kind: LinkDown, Node: node})
			at += spec.FlapGap
			s.add(Injection{At: at, Kind: LinkUp, Node: node})
			at += spec.FlapGap
		}
	}

	s.Ramped = pick(spec.ThermalNodes)
	for _, node := range s.Ramped {
		for step := 1; step <= spec.ThermalSteps; step++ {
			s.add(Injection{
				At:   spec.Start + sim.Time(step)*spec.ThermalEvery,
				Kind: ThermalSet, Node: node,
				Arg: spec.ThermalStep * uint32(step),
			})
		}
		if spec.ThermalCoolAt > 0 {
			s.add(Injection{At: spec.Start + spec.ThermalCoolAt, Kind: ThermalSet, Node: node, Arg: 0})
		}
	}

	s.Corrupted = pick(spec.CorruptNodes)
	for _, node := range s.Corrupted {
		at := spec.Start + sim.Time(rng.Int63n(int64(spec.CorruptFor)/2+1))
		s.add(Injection{At: at, Kind: CorruptStart, Node: node, Arg: uint32(spec.CorruptAttempts)})
		s.add(Injection{At: at + spec.CorruptFor, Kind: CorruptEnd, Node: node})
	}

	if spec.PRFailProb > 0 {
		s.add(Injection{At: spec.Start, Kind: PRFaultStart, Node: -1, Prob: spec.PRFailProb})
		s.add(Injection{At: spec.Start + spec.PRFailFor, Kind: PRFaultEnd, Node: -1})
	}
	if spec.DrainBackendAt > 0 {
		s.add(Injection{
			At: spec.Start + spec.DrainBackendAt, Kind: DrainBackend,
			Node: -1, Arg: uint32(spec.DrainBackendIdx),
		})
	}

	sort.SliceStable(s.Injections, func(i, j int) bool {
		a, b := s.Injections[i], s.Injections[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	return s, nil
}

func (s *Schedule) add(inj Injection) { s.Injections = append(s.Injections, inj) }

// Trace records the planned schedule onto a trace track as instant
// events — the storm script a Perfetto view shows alongside what the
// drill actually applied. Nil-safe like every obs recording call.
func (s *Schedule) Trace(b *obs.Buffer) {
	for _, inj := range s.Injections {
		e := obs.Instant(obs.CatFault, "plan:"+string(inj.Kind), inj.At)
		e.K2, e.V2 = "node", int64(inj.Node)
		e.K3, e.V3 = "arg", int64(inj.Arg)
		b.Add(e)
	}
}

// CausalEvents renders the whole schedule as ground-truth causal
// events for the postmortem engine. subject maps a target node index
// to its fleet ID ("" for fleet-wide injections); nil uses the raw
// index.
func (s *Schedule) CausalEvents(subject func(node int) string) []obs.CausalEvent {
	out := make([]obs.CausalEvent, 0, len(s.Injections))
	for _, inj := range s.Injections {
		sub := ""
		if inj.Node >= 0 {
			if subject != nil {
				sub = subject(inj.Node)
			} else {
				sub = fmt.Sprintf("node-%d", inj.Node)
			}
		}
		detail := ""
		switch inj.Kind {
		case ThermalSet, CorruptStart, DrainBackend:
			detail = fmt.Sprintf("arg=%d", inj.Arg)
		case PRFaultStart:
			detail = fmt.Sprintf("p=%.2f", inj.Prob)
		}
		out = append(out, obs.CausalEvent{
			At: inj.At, Kind: string(inj.Kind), Subject: sub,
			Detail: detail, Scheduled: true,
		})
	}
	return out
}

// End reports the time of the last injection.
func (s *Schedule) End() sim.Time {
	var end sim.Time
	for _, inj := range s.Injections {
		if inj.At > end {
			end = inj.At
		}
	}
	return end
}

// LoadFailureFn builds the deterministic PR-load fault predicate for
// PRFaultStart windows: whether one bitstream load attempt fails
// depends only on (seed, node, tenant, attempt) — never on call order —
// so every case of a side-by-side drill sees identical load faults,
// and an attempt that failed once fails on replay.
func LoadFailureFn(seed int64, p float64) func(node, tenant string, attempt int) bool {
	return func(node, tenant string, attempt int) bool {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%s|%d", seed, node, tenant, attempt)
		return float64(h.Sum64()%1_000_000)/1_000_000 < p
	}
}
