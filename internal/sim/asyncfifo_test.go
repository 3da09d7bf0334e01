package sim

import (
	"testing"
	"testing/quick"
)

// The crossing latency is the synchronizer's visibility delay: two
// read-clock stages plus one read-clock edge of alignment.
func TestAsyncFIFOVisibilityDelay(t *testing.T) {
	rd := NewClock("rd", 250) // user-ish
	f := NewAsyncFIFO(rd)
	if got, want := f.CrossingLatency(), Time(DefaultSyncStages+1)*rd.Period(); got != want {
		t.Errorf("CrossingLatency() = %v, want %v", got, want)
	}
}

func TestAsyncFIFOCrossingLatencyScalesWithReadClock(t *testing.T) {
	slow := NewAsyncFIFO(NewClock("rd", 50))
	fast := NewAsyncFIFO(NewClock("rd", 500))
	if slow.CrossingLatency() <= fast.CrossingLatency() {
		t.Errorf("slow read clock crossing %v should exceed fast %v",
			slow.CrossingLatency(), fast.CrossingLatency())
	}
}

// Property: at any read-clock rate, the crossing covers the
// synchronizer stages and at most one more read period of alignment.
func TestAsyncFIFOVisibilityProperty(t *testing.T) {
	f := func(raw uint16) bool {
		rd := NewClock("rd", float64(raw%1000)+1)
		lat := NewAsyncFIFO(rd).CrossingLatency()
		sync := Time(DefaultSyncStages) * rd.Period()
		return lat > sync && lat <= sync+rd.Period()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsyncFIFOConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("constructor did not panic without a read clock")
		}
	}()
	NewAsyncFIFO(nil)
}
