package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"harmonia/internal/fleet"
	"harmonia/internal/rbb"
	"harmonia/internal/sim"
)

// simOutputs totals the simulated results of a round's measured windows.
// They are printed for reading; the digest is what runs are checked on.
type simOutputs struct {
	Windows     int     `json:"windows"`
	Sent        int64   `json:"sent"`
	Served      int64   `json:"served"`
	Dropped     int64   `json:"dropped"`
	Shed        int64   `json:"shed"`
	GoodputGbps float64 `json:"goodput_gbps"`
	MaxP99US    float64 `json:"max_p99_us"`
	Failovers   int     `json:"failovers"`
	// RecoveredMS is when the last failover's replacements were ready,
	// from the first measured window; a storm run must outlast it.
	RecoveredMS float64 `json:"recovered_ms"`
	MeasuredMS  float64 `json:"measured_ms"`
	Migrations  int     `json:"migrations"`
	PRLoads     int     `json:"pr_loads"`
	Alerts      int     `json:"alerts"`
	Digest      string  `json:"sim_digest"`

	bytes int64
}

// counters are the cumulative fleet counters per-layer numbers are
// deltas of.
type counters struct {
	at         sim.Time
	cmd        fleet.CmdPathStats
	probes     int64 // gossip direct probes
	failovers  int
	migrations int
	rx         rbb.Counters
}

func readCounters(c *fleet.Cluster) counters {
	k := counters{
		at: c.Now(), cmd: c.CmdPath(), probes: c.GossipStats().Probes,
		failovers: len(c.Failovers()), migrations: len(c.Migrations()),
	}
	for _, n := range c.Nodes() {
		rx := n.Net.RxStats()
		k.rx.Units += rx.Units
		k.rx.Drops += rx.Drops
	}
	return k
}

func newFleetRun(c *fleet.Cluster, p *plan, inject func(int) error) *fleetRun {
	f := &fleetRun{c: c, p: p, inject: inject, digest: sha256.New(), base: readCounters(c)}
	for _, s := range p.svcs {
		f.prev = append(f.prev, c.ServiceStats(s.Name))
	}
	return f
}

// check verifies window w's conservation — sent = served + dropped for
// each service and for the fleet, shed ≤ dropped, and the services'
// offered packets summing to the fleet's — and folds the window into the
// digest. The first violation is kept; it fails the whole run.
func (f *fleetRun) check(w int, st fleet.PhaseStats) {
	fail := func(format string, args ...any) {
		if f.violation == "" {
			f.violation = fmt.Sprintf("window %d: ", w) + fmt.Sprintf(format, args...)
		}
	}
	if st.Sent != st.Served+st.Dropped {
		fail("fleet sent %d != served %d + dropped %d", st.Sent, st.Served, st.Dropped)
	}
	var sent, shed int64
	for i, s := range f.p.svcs {
		cur := f.c.ServiceStats(s.Name)
		d := fleet.ServiceSnapshot{
			Sent: cur.Sent - f.prev[i].Sent, Served: cur.Served - f.prev[i].Served,
			Dropped: cur.Dropped - f.prev[i].Dropped, HealthyServed: cur.HealthyServed - f.prev[i].HealthyServed,
			Shed: cur.Shed - f.prev[i].Shed, Bytes: cur.Bytes - f.prev[i].Bytes,
		}
		f.prev[i] = cur
		if d.Sent != d.Served+d.Dropped {
			fail("%s sent %d != served %d + dropped %d", s.Name, d.Sent, d.Served, d.Dropped)
		}
		if d.Shed > d.Dropped {
			fail("%s shed %d > dropped %d", s.Name, d.Shed, d.Dropped)
		}
		sent += d.Sent
		shed += d.Shed
		fmt.Fprintf(f.digest, "%d %s %d %d %d %d %d %d\n",
			w, s.Name, d.Sent, d.Served, d.Dropped, d.HealthyServed, d.Shed, d.Bytes)
	}
	if sent != st.Sent {
		fail("services sent %d != fleet sent %d", sent, st.Sent)
	}
	fmt.Fprintf(f.digest, "%d %d %d %d %d %d %d %d %d\n",
		w, st.From, st.To, st.Sent, st.Served, st.Dropped, st.Bytes, st.P50, st.P99)
	o := &f.out
	o.Windows++
	o.Sent += st.Sent
	o.Served += st.Served
	o.Dropped += st.Dropped
	o.Shed += shed
	o.bytes += st.Bytes
	if p99 := float64(st.P99) / float64(sim.Microsecond); p99 > o.MaxP99US {
		o.MaxP99US = p99
	}
}

// finish folds the run's control-plane record — transitions, failovers,
// migrations, PR-load grants, rebalancer counters and the alert log —
// into the digest and closes it. Fields are named one by one, so a
// field added to a record later leaves the digest as it was.
func (f *fleetRun) finish() {
	c := f.c
	h := f.digest
	for _, t := range c.Transitions() {
		fmt.Fprintf(h, "%d %s %v %v %s %d\n", t.At, t.Node, t.From, t.To, t.Reason, t.CompletedAt)
	}
	for _, r := range c.Failovers() {
		fmt.Fprintf(h, "%s %s %d %d %d %d %d %d\n",
			r.Node, r.Reason, r.DetectedAt, r.RecoveredAt, r.Moved, r.Replaced, r.Unplaced, r.Migrated)
	}
	for _, m := range c.Migrations() {
		fmt.Fprintf(h, "%s %s %s %d %t %d %d %d\n",
			m.Replica, m.From, m.To, m.At, m.Live, m.Flows, m.Restored, m.Dropped)
	}
	loads := 0
	for _, e := range c.LoadEvents() {
		fmt.Fprintf(h, "%d %d %d %s %v %t\n", e.ReqAt, e.Start, e.Done, e.Node, e.Class, e.OK)
		if e.ReqAt >= f.base.at {
			loads++
		}
	}
	rb := c.RebalanceStats()
	fmt.Fprintf(h, "%d %d %d %d %d %d\n",
		rb.MovesPlanned, rb.MovesDone, rb.MovesAborted, rb.Retries, rb.Rebuilds, rb.QueuesReclaimed)
	h.Write(c.AlertLogBytes())

	o := &f.out
	o.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	o.GoodputGbps = float64(o.bytes*8) / float64(sim.Time(o.Windows)*c.Config().Heartbeat/sim.Nanosecond)
	o.Failovers = len(c.Failovers()) - f.base.failovers
	for _, r := range c.Failovers()[f.base.failovers:] {
		if ms := float64(r.RecoveredAt-f.base.at) / float64(sim.Millisecond); ms > o.RecoveredMS {
			o.RecoveredMS = ms
		}
	}
	o.MeasuredMS = float64(c.Now()-f.base.at) / float64(sim.Millisecond)
	o.Migrations = len(c.Migrations()) - f.base.migrations
	o.PRLoads = loads
	o.Alerts = len(c.AlertEvents())
}
