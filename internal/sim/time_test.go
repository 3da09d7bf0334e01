package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewClockPeriod(t *testing.T) {
	tests := []struct {
		freqMHz float64
		want    Time
	}{
		{1, 1_000_000},
		{100, 10_000},
		{250, 4_000},
		{322.265625, 3103}, // 100G MAC core clock, rounded
		{1000, 1_000},
	}
	for _, tt := range tests {
		c := NewClock("c", tt.freqMHz)
		if c.Period() != tt.want {
			t.Errorf("NewClock(%v).Period() = %d, want %d", tt.freqMHz, c.Period(), tt.want)
		}
	}
}

func TestNewClockPanics(t *testing.T) {
	for _, f := range []float64{0, -5, math.NaN(), math.Inf(1), 3e6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", f)
				}
			}()
			NewClock("bad", f)
		}()
	}
}

func TestClockFreqRoundTrip(t *testing.T) {
	// The picosecond period keeps a round frequency exact.
	c := NewClock("c", 250)
	if got := 1e6 / float64(c.Period()); math.Abs(got-250) > 1e-9 {
		t.Errorf("frequency from period = %v MHz, want 250", got)
	}
}

func TestClockCycles(t *testing.T) {
	c := NewClock("c", 100) // 10ns period
	tests := []struct {
		n    int64
		want Time
	}{
		{0, 0},
		{1, 10 * Nanosecond},
		{10, 100 * Nanosecond},
	}
	for _, tt := range tests {
		if got := c.CyclesTime(tt.n); got != tt.want {
			t.Errorf("CyclesTime(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock("c", 100) // 10ns period = 10000ps
	tests := []struct{ in, want Time }{
		{-1, 0},
		{0, 0},
		{1, 10_000},
		{10_000, 10_000},
		{10_001, 20_000},
	}
	for _, tt := range tests {
		if got := c.NextEdge(tt.in); got != tt.want {
			t.Errorf("NextEdge(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestNextEdgeProperties(t *testing.T) {
	c := NewClock("c", 322)
	f := func(raw int64) bool {
		in := Time(raw % int64(Second))
		e := c.NextEdge(in)
		if e < 0 || e%c.Period() != 0 {
			return false
		}
		if in >= 0 && (e < in || e-in >= c.Period()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1s"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.in), got, tt.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	d := 1500 * Nanosecond
	if got := d.Nanoseconds(); got != 1500 {
		t.Errorf("Nanoseconds() = %v, want 1500", got)
	}
	if got := d.Microseconds(); got != 1.5 {
		t.Errorf("Microseconds() = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
}
