// Package gossip is a deterministic SWIM-style failure detector for
// the fleet control plane: instead of sweeping every member each
// monitor tick, the detector directly probes a fixed-size rotation of
// members and piggybacks peer-observed liveness digests on the
// answers, so per-tick cost is O(fanout) while a silent member is
// still confirmed failed within the same consecutive-missed-probes
// contract the central sweep enforced.
//
// Protocol state per member is (status, incarnation, misses):
//
//   - alive → suspect on a missed direct probe or a peer digest that
//     observed the member dead;
//   - suspect → alive (refutation) when a direct probe answers or a
//     peer digest observes the member alive — the member defends
//     itself by bumping its incarnation number, so stale suspicions
//     carrying the old incarnation cannot re-kill it;
//   - suspect → dead (confirmation) only when the member has missed
//     FailedAfter consecutive direct probes. A suspect whose timer
//     expires (SuspectAfter ticks without refutation) is escalated to
//     a direct confirmation probe every tick, so real deaths burn
//     their FailedAfter misses in consecutive ticks instead of one
//     per rotation period.
//
// The confirmation rule is what preserves the fleet's detection
// semantics exactly: a member is declared dead only after FailedAfter
// consecutive missed command-path probes — the same tolerance to
// transient command-wire corruption the central sweep had — and at
// worst the first miss waits one full rotation period, giving the
// deterministic bound
//
//	detect ≤ (Period + SuspectAfter + FailedAfter) ticks,
//	Period = ceil(N / Fanout).
//
// In practice peer digests observe a dead member within a few ticks
// and detection lands near SuspectAfter + FailedAfter regardless of N.
//
// Everything is deterministic: the probe rotation is a seeded
// permutation fixed at construction, digest sampling is a splitmix64
// stream keyed by (seed, tick, prober), and Tick runs on the caller's
// serial control-plane path. The same seed always yields the same
// probe and event sequence.
package gossip

import (
	"fmt"
	"math/rand"
)

// Status is a member's protocol state.
type Status uint8

// Member states. Dead is terminal until Reset.
const (
	Alive Status = iota
	Suspect
	Dead
)

// String names the status for logs and traces.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// EventKind classifies a protocol event.
type EventKind uint8

// Protocol events, in the order the state machine emits them.
const (
	// Suspected marks an alive member entering the suspect state.
	Suspected EventKind = iota
	// Refuted marks a suspect defending itself: a direct probe or a
	// peer digest observed it alive, its incarnation bumped.
	Refuted
	// Confirmed marks a suspect declared dead after FailedAfter
	// consecutive missed direct probes.
	Confirmed
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Suspected:
		return "suspected"
	case Refuted:
		return "refuted"
	case Confirmed:
		return "confirmed"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one state-machine step Tick reports to the caller.
type Event struct {
	Kind   EventKind
	Member int
	// Incarnation is the member's incarnation number after the event.
	Incarnation uint32
	// Misses is the consecutive missed direct probes at event time.
	Misses int
}

// Config shapes the detector.
type Config struct {
	// Fanout is how many rotation members each tick probes directly.
	Fanout int
	// Piggyback is how many peer liveness observations each answered
	// direct probe carries back.
	Piggyback int
	// SuspectAfter is how many ticks a suspicion stands unrefuted
	// before the detector escalates to per-tick confirmation probes.
	SuspectAfter int
	// FailedAfter is how many consecutive missed direct probes confirm
	// a suspect dead — the fleet's detection contract.
	FailedAfter int
	// Seed fixes the probe rotation and digest sampling streams.
	Seed int64
}

// DefaultConfig returns the production-shaped detector settings.
func DefaultConfig(seed int64) Config {
	return Config{Fanout: 8, Piggyback: 4, SuspectAfter: 2, FailedAfter: 3, Seed: seed}
}

// Stats counts protocol activity since construction.
type Stats struct {
	// Ticks is how many protocol rounds ran.
	Ticks int64 `json:"ticks"`
	// Probes counts direct probes (rotation plus confirmation).
	Probes int64 `json:"probes"`
	// Digests counts piggybacked peer liveness observations.
	Digests int64 `json:"digests"`
	// Suspicions, Refutations and Confirmations count emitted events.
	Suspicions    int64 `json:"suspicions"`
	Refutations   int64 `json:"refutations"`
	Confirmations int64 `json:"confirmations"`
}

// member is one member's protocol state.
type member struct {
	status Status
	inc    uint32
	// misses counts consecutive missed direct probes.
	misses int
	// suspectAt is the tick the current suspicion started.
	suspectAt int64
}

// Group is one gossip failure-detection domain.
type Group struct {
	cfg     Config
	members []member
	// order is the fixed probe rotation (seeded permutation); cursor
	// is the next rotation position.
	order  []int
	cursor int
	tick   int64
	// suspects holds current suspect ids, ascending, so the per-tick
	// escalation scan is O(|suspects|) and deterministic; expired is
	// the scan's reused result.
	suspects []int
	expired  []int
	stats    Stats
}

// New builds a detector over n members, all alive. The probe rotation
// is a seeded shuffle so rack-adjacent members do not probe in lockstep.
func New(n int, cfg Config) (*Group, error) {
	if n < 1 || cfg.Fanout < 1 || cfg.Piggyback < 0 || cfg.SuspectAfter < 0 || cfg.FailedAfter < 1 {
		return nil, fmt.Errorf("gossip: invalid group: n=%d cfg=%+v", n, cfg)
	}
	g := &Group{cfg: cfg, members: make([]member, n), order: make([]int, n)}
	for i := range g.order {
		g.order[i] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(n, func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	return g, nil
}

// Period reports the rotation period in ticks: every live member is
// directly probed at least once per Period ticks.
func (g *Group) Period() int {
	p := (len(g.members) + g.cfg.Fanout - 1) / g.cfg.Fanout
	if p < 1 {
		p = 1
	}
	return p
}

// Bound reports the worst-case confirmation latency in ticks: one
// full rotation period before the first direct probe can miss,
// SuspectAfter ticks of unrefuted suspicion, FailedAfter consecutive
// misses under escalation, plus one tick of phase slack.
func (g *Group) Bound() int {
	return g.Period() + g.cfg.SuspectAfter + g.cfg.FailedAfter + 1
}

// Add appends one alive member (a node commissioned after the group
// formed) to the end of the rotation and returns its id.
func (g *Group) Add() int {
	id := len(g.members)
	g.members = append(g.members, member{})
	g.order = append(g.order, id)
	return id
}

// Stats reports cumulative protocol counters.
func (g *Group) Stats() Stats { return g.stats }

// Suspect injects an external suspicion about an alive member (test
// and chaos hook; also the entry point for suspicions arriving from
// outside the detection domain). Reports whether the suspicion took.
func (g *Group) Suspect(i int) bool {
	m := &g.members[i]
	if m.status != Alive {
		return false
	}
	g.suspect(i, nil)
	return true
}

// MarkDead force-marks a member dead without an event — the caller
// learned of the death through a stronger channel (irq link-down) and
// the detector must stop probing it.
func (g *Group) MarkDead(i int) {
	m := &g.members[i]
	if m.status == Dead {
		return
	}
	if m.status == Suspect {
		g.dropSuspect(i)
	}
	m.status = Dead
}

// Reset returns a dead member to alive (revive) with a fresh
// incarnation and no misses.
func (g *Group) Reset(i int) {
	m := &g.members[i]
	if m.status == Suspect {
		g.dropSuspect(i)
	}
	m.status = Alive
	m.inc++
	m.misses = 0
}

// Due appends to dst, without changing any state, the members Tick
// will pass to direct, in call order: the suspects whose timer expires
// at the next tick, then the rotation's next Fanout members that are
// not dead. A member appears twice when it is an expired suspect and
// the rotation reaches it in the same tick (or the rotation wraps). The
// list is exact except that Tick skips the later slots of a member its
// own probe confirmed dead earlier in the tick; any member's first slot
// is always probed. A caller can therefore run the members' first
// probes ahead of Tick and feed them back in order.
func (g *Group) Due(dst []int) []int {
	dst = g.appendExpired(dst, g.tick+1)
	c := g.cursor
	for k := 0; k < g.cfg.Fanout; k++ {
		if i := g.order[c]; g.members[i].status != Dead {
			dst = append(dst, i)
		}
		c = (c + 1) % len(g.order)
	}
	return dst
}

// appendExpired appends the suspects whose suspicion has stood
// SuspectAfter ticks by tick, ascending.
func (g *Group) appendExpired(dst []int, tick int64) []int {
	for _, i := range g.suspects {
		if tick-g.members[i].suspectAt >= int64(g.cfg.SuspectAfter) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Tick runs one protocol round. direct probes a member over the
// authoritative command path and reports whether it answered; observe
// reports a LAN peer's view of a member's data-plane liveness (the
// piggybacked digest content). Both callbacks must be deterministic.
// Tick returns the state-machine events of this round, in decision
// order.
func (g *Group) Tick(direct func(int) bool, observe func(int) bool) []Event {
	g.tick++
	g.stats.Ticks++
	var events []Event

	// Escalation: suspects whose timer expired take a confirmation
	// probe every tick until they answer or burn FailedAfter misses.
	// The scan copies the id list because probes mutate the set.
	g.expired = g.appendExpired(g.expired[:0], g.tick)
	for _, i := range g.expired {
		events = g.probe(i, direct, events)
	}

	// Rotation: the next Fanout members in the fixed permutation.
	// Dead members keep their rotation slot (skipped without a probe),
	// so the period — and with it the detection bound — never drifts
	// as members die.
	for k := 0; k < g.cfg.Fanout; k++ {
		i := g.order[g.cursor]
		g.cursor = (g.cursor + 1) % len(g.order)
		if g.members[i].status == Dead {
			continue
		}
		events = g.probe(i, direct, events)
		// Piggyback: an answered probe carries the target's view of
		// Piggyback sampled peers. Sampling is a splitmix64 stream
		// keyed by (seed, tick, prober position), so it is
		// deterministic yet varies across ticks.
		if g.members[i].status == Dead || g.cfg.Piggyback == 0 {
			continue
		}
		if g.members[i].misses > 0 {
			continue // the probe missed: no digest came back
		}
		h := uint64(g.cfg.Seed) ^ uint64(g.tick)*0x9E3779B97F4A7C15 ^ uint64(i)<<32
		for d := 0; d < g.cfg.Piggyback; d++ {
			h = splitmix64(h)
			j := int(h % uint64(len(g.members)))
			if j == i || g.members[j].status == Dead {
				continue
			}
			g.stats.Digests++
			if observe(j) {
				if g.members[j].status == Suspect {
					events = append(events, g.refute(j))
				}
			} else if g.members[j].status == Alive {
				events = g.suspect(j, events)
			}
		}
	}
	return events
}

// probe runs one direct probe of member i and advances its state.
func (g *Group) probe(i int, direct func(int) bool, events []Event) []Event {
	m := &g.members[i]
	g.stats.Probes++
	if direct(i) {
		m.misses = 0
		if m.status == Suspect {
			events = append(events, g.refute(i))
		}
		return events
	}
	m.misses++
	if m.status == Alive {
		events = g.suspect(i, events)
	}
	if m.misses >= g.cfg.FailedAfter {
		if m.status == Suspect {
			g.dropSuspect(i)
		}
		m.status = Dead
		g.stats.Confirmations++
		events = append(events, Event{Kind: Confirmed, Member: i, Incarnation: m.inc, Misses: m.misses})
	}
	return events
}

// suspect moves an alive member to suspect and arms its timer.
func (g *Group) suspect(i int, events []Event) []Event {
	m := &g.members[i]
	m.status = Suspect
	m.suspectAt = g.tick
	g.addSuspect(i)
	g.stats.Suspicions++
	return append(events, Event{Kind: Suspected, Member: i, Incarnation: m.inc, Misses: m.misses})
}

// refute returns a suspect to alive with a bumped incarnation — the
// member's defense against the stale suspicion.
func (g *Group) refute(i int) Event {
	m := &g.members[i]
	m.status = Alive
	m.inc++
	g.dropSuspect(i)
	g.stats.Refutations++
	return Event{Kind: Refuted, Member: i, Incarnation: m.inc, Misses: m.misses}
}

// addSuspect inserts i into the sorted suspect set.
func (g *Group) addSuspect(i int) {
	k := 0
	for k < len(g.suspects) && g.suspects[k] < i {
		k++
	}
	g.suspects = append(g.suspects, 0)
	copy(g.suspects[k+1:], g.suspects[k:])
	g.suspects[k] = i
}

// dropSuspect removes i from the suspect set.
func (g *Group) dropSuspect(i int) {
	for k, s := range g.suspects {
		if s == i {
			g.suspects = append(g.suspects[:k], g.suspects[k+1:]...)
			return
		}
	}
}

// splitmix64 is the digest sampling stream step.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
