package net

import (
	"fmt"

	"harmonia/internal/sim"
)

// LossyLink wraps a Link with deterministic loss injection, for
// exercising the reliable transport under failure.
type LossyLink struct {
	*Link
	// DropEvery drops every Nth frame (0 disables loss).
	DropEvery int
	sent      int64
}

// NewLossyLink returns a link that drops every dropEvery-th frame.
func NewLossyLink(name string, gbps float64, propDelay sim.Time, dropEvery int) *LossyLink {
	return &LossyLink{Link: NewLink(name, gbps, propDelay), DropEvery: dropEvery}
}

// Send transmits a frame; ok is false when the frame was lost (the
// wire time is still consumed — the bits went out, nobody caught them).
func (l *LossyLink) Send(now sim.Time, wireBytes int) (arrive sim.Time, ok bool) {
	arrive = l.Transmit(now, wireBytes)
	l.sent++
	if l.DropEvery > 0 && l.sent%int64(l.DropEvery) == 0 {
		return arrive, false
	}
	return arrive, true
}

// Segment is one transport-layer unit.
type Segment struct {
	Seq     uint32
	Bytes   int
	Payload []byte
}

// Reliable is a go-back-N sender/receiver pair over a lossy link — the
// flow-level processing (TCP/RDMA-style transport) the Network RBB's
// instances provide. The model is functional: data arrives exactly
// once, in order, with timing that reflects retransmissions.
type Reliable struct {
	link   *LossyLink
	window int
	// rto is the retransmission timeout.
	rto sim.Time

	nextSeq   uint32 // next sequence to send
	ackedSeq  uint32 // cumulative ack (all < ackedSeq delivered)
	delivered []Segment
	retrans   int64
}

// NewReliable returns a transport over link with the given window.
func NewReliable(link *LossyLink, window int, rto sim.Time) (*Reliable, error) {
	if link == nil || window <= 0 || rto <= 0 {
		return nil, fmt.Errorf("net: invalid reliable transport config")
	}
	return &Reliable{link: link, window: window, rto: rto}, nil
}

// Retransmissions reports how many segments were resent.
func (r *Reliable) Retransmissions() int64 { return r.retrans }

// Delivered returns the in-order delivered segments.
func (r *Reliable) Delivered() []Segment { return r.delivered }

// Transfer sends segments reliably starting at now and returns the time
// the last segment is acknowledged. Loss triggers go-back-N
// retransmission after the RTO.
func (r *Reliable) Transfer(now sim.Time, segs []Segment) (sim.Time, error) {
	if len(segs) == 0 {
		return now, nil
	}
	t := now
	base := 0 // index of first unacked segment
	attempts := 0
	const maxAttempts = 64 // give up on a dead link
	for base < len(segs) {
		attempts++
		if attempts > maxAttempts+len(segs) {
			return t, fmt.Errorf("net: transfer stalled after %d rounds (link dead?)", attempts)
		}
		// Send up to a window of segments from base.
		end := base + r.window
		if end > len(segs) {
			end = len(segs)
		}
		lossAt := -1
		var lastArrive sim.Time
		for i := base; i < end; i++ {
			arrive, ok := r.link.Send(t, segs[i].Bytes)
			lastArrive = arrive
			if !ok {
				lossAt = i
				break
			}
			// Delivered in order (go-back-N receiver discards gaps, and
			// we stop at the first loss, so order holds).
			r.delivered = append(r.delivered, segs[i])
			r.ackedSeq++
		}
		if lossAt < 0 {
			// Whole window delivered; cumulative ack returns after the
			// propagation delay (approximated inside lastArrive).
			base = end
			t = lastArrive
			continue
		}
		// Loss: everything from lossAt is resent after the RTO.
		r.retrans += int64(end - lossAt)
		t = lastArrive + r.rto
		base = lossAt
	}
	return t, nil
}

// VerifyInOrder checks the delivered stream against the sent one.
func VerifyInOrder(sent, delivered []Segment) error {
	if len(delivered) < len(sent) {
		return fmt.Errorf("net: delivered %d of %d segments", len(delivered), len(sent))
	}
	j := 0
	for i := range sent {
		if j >= len(delivered) {
			return fmt.Errorf("net: segment %d never delivered", sent[i].Seq)
		}
		if delivered[j].Seq != sent[i].Seq {
			return fmt.Errorf("net: out-of-order delivery at %d: got seq %d want %d",
				j, delivered[j].Seq, sent[i].Seq)
		}
		j++
	}
	return nil
}
