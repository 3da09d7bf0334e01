package net

import (
	"testing"
	"testing/quick"

	"harmonia/internal/sim"
)

func mkSegs(n, size int) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Seq: uint32(i), Bytes: size}
	}
	return segs
}

func TestLossyLinkDropsDeterministically(t *testing.T) {
	l := NewLossyLink("l", 100, 0, 3)
	drops := 0
	for i := 0; i < 9; i++ {
		if _, ok := l.Send(0, 64); !ok {
			drops++
		}
	}
	if drops != 3 {
		t.Errorf("drops = %d, want 3", drops)
	}
	// Zero disables loss.
	clean := NewLossyLink("c", 100, 0, 0)
	for i := 0; i < 10; i++ {
		if _, ok := clean.Send(0, 64); !ok {
			t.Fatal("lossless link dropped a frame")
		}
	}
}

func TestReliableLosslessDelivery(t *testing.T) {
	link := NewLossyLink("l", 100, sim.Microsecond, 0)
	r, err := NewReliable(link, 8, 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	segs := mkSegs(100, 1024)
	done, err := r.Transfer(0, segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInOrder(segs, r.Delivered()); err != nil {
		t.Error(err)
	}
	if r.Retransmissions() != 0 {
		t.Errorf("lossless transfer retransmitted %d", r.Retransmissions())
	}
	if done <= 0 {
		t.Error("transfer took no time")
	}
}

func TestReliableRecoversFromLoss(t *testing.T) {
	// Drop every 7th frame: the transport must still deliver everything
	// exactly once, in order, at a time cost.
	lossy := NewLossyLink("l", 100, sim.Microsecond, 7)
	r, err := NewReliable(lossy, 4, 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	segs := mkSegs(60, 512)
	doneLossy, err := r.Transfer(0, segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyInOrder(segs, r.Delivered()); err != nil {
		t.Fatal(err)
	}
	if len(r.Delivered()) != len(segs) {
		t.Errorf("delivered %d, want %d exactly once", len(r.Delivered()), len(segs))
	}
	if r.Retransmissions() == 0 {
		t.Error("loss did not trigger retransmission")
	}
	// Compare against a clean run: loss must cost time.
	clean := NewLossyLink("c", 100, sim.Microsecond, 0)
	r2, _ := NewReliable(clean, 4, 50*sim.Microsecond)
	doneClean, _ := r2.Transfer(0, segs)
	if doneLossy <= doneClean {
		t.Errorf("lossy %v not slower than clean %v", doneLossy, doneClean)
	}
}

func TestReliableDeadLinkFails(t *testing.T) {
	dead := NewLossyLink("dead", 100, 0, 1) // drops everything
	r, _ := NewReliable(dead, 4, sim.Microsecond)
	if _, err := r.Transfer(0, mkSegs(4, 64)); err == nil {
		t.Error("transfer over a dead link should fail")
	}
}

func TestReliableValidation(t *testing.T) {
	if _, err := NewReliable(nil, 4, sim.Microsecond); err == nil {
		t.Error("nil link accepted")
	}
	l := NewLossyLink("l", 100, 0, 0)
	if _, err := NewReliable(l, 0, sim.Microsecond); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewReliable(l, 4, 0); err == nil {
		t.Error("zero RTO accepted")
	}
	r, _ := NewReliable(l, 4, sim.Microsecond)
	if done, err := r.Transfer(42, nil); err != nil || done != 42 {
		t.Error("empty transfer should be free")
	}
}

// Property: for any drop period >= 2 and segment count, delivery is
// exactly-once and in order.
func TestReliableExactlyOnceProperty(t *testing.T) {
	f := func(dropRaw, nRaw uint8) bool {
		drop := int(dropRaw%9) + 2 // 2..10
		n := int(nRaw%40) + 1      // 1..40
		link := NewLossyLink("p", 100, sim.Microsecond, drop)
		r, err := NewReliable(link, 4, 20*sim.Microsecond)
		if err != nil {
			return false
		}
		segs := mkSegs(n, 256)
		if _, err := r.Transfer(0, segs); err != nil {
			return false
		}
		if len(r.Delivered()) != n {
			return false
		}
		return VerifyInOrder(segs, r.Delivered()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
