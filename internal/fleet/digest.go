package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// Digest is the canonical fingerprint of one simulated run: every
// phase's fleet statistics and per-service counter deltas, then the
// control-plane record — transitions, failovers, migrations, PR-load
// grants, rebalancer counters and the alert log. Fields are written
// one by one in fixed formats, so a field added to a record later
// leaves the digest of an existing run as it was.
//
// A Digest only hashes; callers judge the per-service deltas Phase
// returns (conservation) themselves. The SLO burn-rate state is not
// part of it: it is read back as floats at the end of a run, and the
// determinism tests compare it on its own (burnState).
type Digest struct {
	c      *Cluster
	h      hash.Hash
	svcs   []string
	prev   []ServiceSnapshot
	delta  []ServiceSnapshot
	phases int
}

// NewDigest starts a digest of c's run from here on: per-service
// deltas count from the services' current counters.
func NewDigest(c *Cluster) *Digest {
	d := &Digest{c: c, h: sha256.New(), svcs: c.Services()}
	for _, s := range d.svcs {
		d.prev = append(d.prev, c.ServiceStats(s))
	}
	d.delta = make([]ServiceSnapshot, len(d.svcs))
	return d
}

// Phase folds one served phase: each service's counter delta since the
// previous phase, then the phase's own statistics. It returns the
// deltas in the order c.Services() had at NewDigest; the slice is
// reused by the next call.
func (d *Digest) Phase(st PhaseStats) []ServiceSnapshot {
	w := d.phases
	d.phases++
	for i, s := range d.svcs {
		cur := d.c.ServiceStats(s)
		p := d.prev[i]
		dt := ServiceSnapshot{
			Sent: cur.Sent - p.Sent, Served: cur.Served - p.Served,
			Dropped: cur.Dropped - p.Dropped, HealthyServed: cur.HealthyServed - p.HealthyServed,
			Shed: cur.Shed - p.Shed, Bytes: cur.Bytes - p.Bytes,
		}
		d.prev[i], d.delta[i] = cur, dt
		fmt.Fprintf(d.h, "%d %s %d %d %d %d %d %d\n",
			w, s, dt.Sent, dt.Served, dt.Dropped, dt.HealthyServed, dt.Shed, dt.Bytes)
	}
	fmt.Fprintf(d.h, "%d %d %d %d %d %d %d %d %d\n",
		w, st.From, st.To, st.Sent, st.Served, st.Dropped, st.Bytes, st.P50, st.P99)
	return d.delta
}

// Sum folds the cluster's control-plane record and returns the digest
// as 16 hex characters. It ends the digest; call it once.
func (d *Digest) Sum() string {
	c, h := d.c, d.h
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
	for _, e := range c.LoadEvents() {
		fmt.Fprintf(h, "%d %d %d %s %v %t\n", e.ReqAt, e.Start, e.Done, e.Node, e.Class, e.OK)
	}
	rb := c.RebalanceStats()
	fmt.Fprintf(h, "%d %d %d %d %d %d\n",
		rb.MovesPlanned, rb.MovesDone, rb.MovesAborted, rb.Retries, rb.Rebuilds, rb.QueuesReclaimed)
	h.Write(c.AlertLogBytes())
	return hex.EncodeToString(h.Sum(nil))[:16]
}
