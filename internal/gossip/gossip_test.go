package gossip

import (
	"math/rand"
	"slices"
	"testing"
)

// world is a synthetic membership: direct probes answer and peers
// observe alive unless the member is down.
type world struct {
	g    *Group
	down map[int]bool
	// cmdDown simulates a command-wire-only fault: direct probes miss
	// but the data plane (peer observations) still sees the member.
	cmdDown map[int]bool
}

func newWorld(t *testing.T, n int, cfg Config) *world {
	t.Helper()
	g, err := New(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &world{g: g, down: map[int]bool{}, cmdDown: map[int]bool{}}
}

func (w *world) tick() []Event {
	return w.g.Tick(
		func(i int) bool { return !w.down[i] && !w.cmdDown[i] },
		func(i int) bool { return !w.down[i] },
	)
}

// ticksToConfirm runs the world until member victim confirms dead,
// returning the tick count (or failing past limit).
func (w *world) ticksToConfirm(t *testing.T, victim, limit int) int {
	t.Helper()
	for tick := 1; tick <= limit; tick++ {
		for _, ev := range w.tick() {
			if ev.Kind == Confirmed && ev.Member == victim {
				return tick
			}
		}
	}
	t.Fatalf("member %d not confirmed within %d ticks", victim, limit)
	return 0
}

// bound is the detector's worst-case confirmation tick count.
func bound(g *Group) int { return g.Bound() }

func TestDeadMemberConfirmedWithinBound(t *testing.T) {
	for _, n := range []int{30, 300} {
		w := newWorld(t, n, DefaultConfig(7))
		w.down[n/2] = true
		got := w.ticksToConfirm(t, n/2, 10*bound(w.g))
		if max := bound(w.g); got > max {
			t.Errorf("n=%d: confirmed at tick %d, bound %d", n, got, max)
		}
		if st := w.g.members[n/2].status; st != Dead {
			t.Errorf("n=%d: status %v, want dead", n, st)
		}
	}
}

func TestFalseSuspicionRefutedWithIncarnationBump(t *testing.T) {
	w := newWorld(t, 64, DefaultConfig(3))
	inc0 := w.g.members[10].inc
	if !w.g.Suspect(10) {
		t.Fatal("suspicion of an alive member must take")
	}
	if st := w.g.members[10].status; st != Suspect {
		t.Fatalf("status %v, want suspect", st)
	}
	// The member is alive: the suspicion must resolve to a refutation
	// within the escalation window, never a confirmation.
	refuted := false
	maxTicks := bound(w.g)
	for tick := 0; tick < maxTicks && !refuted; tick++ {
		for _, ev := range w.tick() {
			if ev.Member != 10 {
				continue
			}
			switch ev.Kind {
			case Confirmed:
				t.Fatalf("alive member confirmed dead at tick %d", tick)
			case Refuted:
				refuted = true
			}
		}
	}
	if !refuted {
		t.Fatalf("suspicion not refuted within %d ticks", maxTicks)
	}
	st, inc1 := w.g.members[10].status, w.g.members[10].inc
	if st != Alive {
		t.Errorf("status %v after refutation, want alive", st)
	}
	if inc1 != inc0+1 {
		t.Errorf("incarnation %d after refutation, want %d", inc1, inc0+1)
	}
}

func TestTransientCommandFaultToleratedLikeCentralSweep(t *testing.T) {
	// A command-wire fault shorter than FailedAfter consecutive missed
	// probes must never confirm the member dead — the same tolerance
	// the central sweep's missed-heartbeat counter provides.
	cfg := DefaultConfig(5)
	cfg.Fanout = 64 // probe everyone every tick: misses accrue fastest
	w := newWorld(t, 64, cfg)
	w.cmdDown[7] = true
	for tick := 0; tick < cfg.FailedAfter-1; tick++ {
		for _, ev := range w.tick() {
			if ev.Kind == Confirmed && ev.Member == 7 {
				t.Fatalf("confirmed after %d ticks of command fault (FailedAfter=%d)",
					tick+1, cfg.FailedAfter)
			}
		}
	}
	w.cmdDown[7] = false // wire recovers before the contract expires
	for tick := 0; tick < 2*bound(w.g); tick++ {
		for _, ev := range w.tick() {
			if ev.Kind == Confirmed && ev.Member == 7 {
				t.Fatal("confirmed after the wire recovered")
			}
		}
	}
	if st := w.g.members[7].status; st != Alive {
		t.Errorf("status %v after recovery, want alive", st)
	}
}

func TestPersistentCommandFaultConfirms(t *testing.T) {
	// A wire dead for FailedAfter consecutive probes confirms, exactly
	// like the central sweep would — even though the data plane still
	// answers peers.
	cfg := DefaultConfig(5)
	cfg.Fanout = 16
	w := newWorld(t, 16, cfg)
	w.cmdDown[3] = true
	got := w.ticksToConfirm(t, 3, 10*bound(w.g))
	if got < cfg.FailedAfter {
		t.Errorf("confirmed at tick %d, before FailedAfter=%d consecutive misses",
			got, cfg.FailedAfter)
	}
}

func TestConvergenceVsFanout(t *testing.T) {
	// Detection latency must stay within the per-fanout bound at both
	// 1k and 10k members, and the bound itself shrinks as fanout grows
	// — the knob that trades per-tick cost for worst-case latency.
	for _, n := range []int{1000, 10000} {
		prevBound := 1 << 30
		for _, fanout := range []int{4, 8, 16, 32} {
			cfg := DefaultConfig(11)
			cfg.Fanout = fanout
			w := newWorld(t, n, cfg)
			victim := n / 3
			w.down[victim] = true
			got := w.ticksToConfirm(t, victim, 10*bound(w.g))
			if max := bound(w.g); got > max {
				t.Errorf("n=%d fanout=%d: confirmed at tick %d, bound %d", n, fanout, got, max)
			}
			if b := bound(w.g); b >= prevBound {
				t.Errorf("n=%d fanout=%d: bound %d did not shrink (prev %d)", n, fanout, b, prevBound)
			} else {
				prevBound = b
			}
			t.Logf("n=%d fanout=%d: confirmed in %d ticks (bound %d, period %d)",
				n, fanout, got, bound(w.g), w.g.Period())
		}
	}
}

func TestDeterministicEventSequence(t *testing.T) {
	run := func() []Event {
		w := newWorld(t, 128, DefaultConfig(9))
		w.down[17] = true
		w.down[90] = true
		var all []Event
		for tick := 0; tick < 100; tick++ {
			if tick == 40 {
				w.g.Suspect(3)
			}
			all = append(all, w.tick()...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMarkDeadAndReset(t *testing.T) {
	w := newWorld(t, 32, DefaultConfig(1))
	w.g.MarkDead(5)
	if st := w.g.members[5].status; st != Dead {
		t.Fatalf("status %v after MarkDead, want dead", st)
	}
	// Dead members are skipped: no probes, no events about them.
	w.down[5] = true
	for tick := 0; tick < 3*bound(w.g); tick++ {
		for _, ev := range w.tick() {
			if ev.Member == 5 {
				t.Fatalf("event %+v about a dead member", ev)
			}
		}
	}
	w.down[5] = false
	inc0 := w.g.members[5].inc
	w.g.Reset(5)
	if st, inc := w.g.members[5].status, w.g.members[5].inc; st != Alive || inc != inc0+1 {
		t.Errorf("status %v inc %d after Reset, want alive inc %d", st, inc, inc0+1)
	}
}

func TestPerTickCostIsFanoutBounded(t *testing.T) {
	// The whole point: per-tick probe cost tracks fanout, not N.
	cfg := DefaultConfig(2)
	w := newWorld(t, 10000, cfg)
	for tick := 0; tick < 50; tick++ {
		w.tick()
	}
	st := w.g.Stats()
	if st.Probes > int64(50*cfg.Fanout) {
		t.Errorf("%d probes over 50 healthy ticks, want <= %d", st.Probes, 50*cfg.Fanout)
	}
	if st.Digests > int64(50*cfg.Fanout*cfg.Piggyback) {
		t.Errorf("%d digests over 50 ticks, want <= %d", st.Digests, 50*cfg.Fanout*cfg.Piggyback)
	}
}

// TestDueMatchesTick: across random groups under missed probes,
// injected suspicions, MarkDead/Reset and piggybacked observations, the
// list Due returns before each Tick is the sequence of direct calls
// Tick makes, duplicates included, except for the later slots of a
// member a probe earlier in the same tick confirmed dead. Due changes
// no state: a second call returns the same list.
func TestDueMatchesTick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dups, skips := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		cfg := Config{Fanout: 1 + rng.Intn(12), Piggyback: rng.Intn(5), SuspectAfter: rng.Intn(4),
			FailedAfter: 1 + rng.Intn(4), Seed: rng.Int63()}
		g, err := New(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		missP := rng.Float64() * 0.6
		for tick := 0; tick < 60; tick++ {
			switch k := rng.Intn(len(g.members)); rng.Intn(8) {
			case 0:
				g.Suspect(k)
			case 1:
				g.MarkDead(k)
			case 2:
				if g.members[k].status == Dead {
					g.Reset(k)
				}
			case 3:
				g.Add()
			}
			due := g.Due(nil)
			if again := g.Due(nil); !slices.Equal(again, due) {
				t.Fatalf("trial %d tick %d: Due changed state: %v then %v", trial, tick, due, again)
			}
			// skip advances past due slots Tick may leave out: each must
			// be a member already probed this tick and now dead.
			p := 0
			called := map[int]bool{}
			skip := func(upTo func(int) bool) {
				for p < len(due) && !upTo(due[p]) {
					if i := due[p]; !called[i] || g.members[i].status != Dead {
						t.Fatalf("trial %d tick %d: Tick skipped slot %d (member %d) of %v", trial, tick, p, i, due)
					}
					skips++
					p++
				}
			}
			g.Tick(
				func(i int) bool {
					skip(func(d int) bool { return d == i })
					if p == len(due) {
						t.Fatalf("trial %d tick %d: Tick probed %d beyond Due %v", trial, tick, i, due)
					}
					p++
					if called[i] {
						dups++
					}
					called[i] = true
					return rng.Float64() >= missP
				},
				func(int) bool { return rng.Float64() >= missP/2 },
			)
			skip(func(int) bool { return false })
		}
	}
	if dups == 0 || skips == 0 {
		t.Fatalf("the random groups probed a member twice %d times and skipped %d slots; want both", dups, skips)
	}
}
