package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"harmonia/internal/sim"
)

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("hello, memory")
	s.Write(100, data)
	got := s.Read(100, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
	// Untouched regions read zero.
	zero := s.Read(1_000_000, 8)
	for _, b := range zero {
		if b != 0 {
			t.Fatal("untouched memory non-zero")
		}
	}
}

func TestStoreCrossesPages(t *testing.T) {
	s := NewStore()
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(pageSize-17, data)
	got := s.Read(pageSize-17, len(data))
	if !bytes.Equal(got, data) {
		t.Error("page-crossing round trip failed")
	}
	if len(s.pages) < 3 {
		t.Errorf("%d pages touched, want >= 3", len(s.pages))
	}
}

func TestStoreRoundTripProperty(t *testing.T) {
	f := func(addrRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := NewStore()
		addr := int64(addrRaw)
		s.Write(addr, data)
		return bytes.Equal(s.Read(addr, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowBufferHitVsMiss(t *testing.T) {
	d := NewDevice(DDR4Config(1))
	// First access opens the row (miss); second to the same row hits.
	t1 := d.Access(0, 0, 64, false)
	busy := d.channels[0].busyUntil
	t2 := d.Access(busy, 64, 64, false)
	missLat := t1 - 0
	hitLat := t2 - busy
	if hitLat >= missLat {
		t.Errorf("hit latency %v not below miss latency %v", hitLat, missLat)
	}
	st := d.stats
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestSequentialFasterThanRandom(t *testing.T) {
	// Fig. 18c shape: sequential access beats random access.
	run := func(random bool) sim.Time {
		d := NewDevice(DDR4Config(2))
		d.SetMapping(Striped)
		var now sim.Time
		const n = 2000
		for i := 0; i < n; i++ {
			var addr int64
			if random {
				// Jump a row-sized stride with a large prime to defeat
				// the row buffer.
				addr = (int64(i) * 1_048_583 * 8192) % (1 << 30)
			} else {
				addr = int64(i) * 64
			}
			now = d.Access(now, addr, 64, false)
		}
		return now
	}
	seq := run(false)
	rnd := run(true)
	if seq >= rnd {
		t.Errorf("sequential %v not faster than random %v", seq, rnd)
	}
}

func TestStripingEngagesAllChannels(t *testing.T) {
	linear := NewDevice(DDR4Config(2))
	striped := NewDevice(DDR4Config(2))
	striped.SetMapping(Striped)
	// Stream 1MB sequentially in 256B chunks.
	var tl, ts sim.Time
	for i := 0; i < 4096; i++ {
		addr := int64(i) * 256
		tl = linear.Access(tl, addr, 256, false)
		ts = striped.Access(ts, addr, 256, false)
	}
	// With striping, consecutive chunks land on alternating channels so
	// the stream sustains ~2x the single-channel bandwidth. Timing is
	// serialized per call here, so compare channel busy spread instead.
	if striped.channels[0].busyUntil == 0 || striped.channels[1].busyUntil == 0 {
		t.Error("striped mapping left a channel idle")
	}
	if linear.channels[1].busyUntil != 0 {
		t.Error("linear mapping touched the second channel for a small stream")
	}
}

func TestHBMBandwidthExceedsDDR(t *testing.T) {
	hbm := NewDevice(HBMConfig())
	ddr := NewDevice(DDR4Config(2))
	if hbm.cfg.ChannelGbps*float64(hbm.cfg.Channels) <=
		ddr.cfg.ChannelGbps*float64(ddr.cfg.Channels) {
		t.Error("HBM aggregate bandwidth should exceed DDR")
	}
	capacity := func(d *Device) int64 { return int64(d.cfg.Channels) * d.cfg.BytesPerChannel }
	if capacity(hbm) >= capacity(ddr) {
		t.Error("HBM capacity should be below the DDR board capacity")
	}
}

func TestDeviceReadWrite(t *testing.T) {
	d := NewDevice(DDR4Config(1))
	done := d.Write(0, 4096, []byte{1, 2, 3, 4})
	if done <= 0 {
		t.Error("write completed instantly")
	}
	data, done2 := d.Read(done, 4096, 4)
	if !bytes.Equal(data, []byte{1, 2, 3, 4}) {
		t.Errorf("Read = %v", data)
	}
	if done2 <= done {
		t.Error("read completed instantly")
	}
	st := d.stats
	if st.Reads != 1 || st.Writes != 1 || st.Bytes != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessZeroSize(t *testing.T) {
	d := NewDevice(DDR4Config(1))
	if done := d.Access(42, 0, 0, false); done != 42 {
		t.Errorf("zero-size access took time: %v", done)
	}
}

func TestNewDevicePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDevice with zero channels did not panic")
		}
	}()
	NewDevice(Config{})
}

func TestInterleaveString(t *testing.T) {
	if Linear.String() != "linear" || Striped.String() != "striped" {
		t.Error("Interleave.String mismatch")
	}
	if Interleave(5).String() != "interleave(5)" {
		t.Error("unknown interleave formatting mismatch")
	}
}

func TestBankOccupancySerializesMisses(t *testing.T) {
	// Two back-to-back activations of different rows in the same bank
	// must be spaced by at least TRC.
	cfg := DDR4Config(1)
	d := NewDevice(cfg)
	// Rows 0 and 16 map to the same bank (16 banks per channel).
	first := d.Access(0, 0, 64, false)
	second := d.Access(0, 16*cfg.RowBytes, 64, false)
	if second-first < cfg.TRC-cfg.TMiss {
		t.Errorf("same-bank activations spaced %v, want >= TRC gap", second-first)
	}
}

func TestFAWLimitsActivationRate(t *testing.T) {
	// Independent row misses to distinct banks: the fifth activation
	// in a channel must wait for the tFAW window.
	cfg := DDR4Config(1)
	d := NewDevice(cfg)
	var times []sim.Time
	for i := 0; i < 5; i++ {
		// Different banks, all misses.
		addr := int64(i) * cfg.RowBytes
		times = append(times, d.Access(0, addr, 64, false))
	}
	// First four issue at t=0 (bus permitting); the fifth is pushed out
	// by tFAW.
	if times[4]-times[3] < cfg.TFAW/2 {
		t.Errorf("fifth activation at %v vs fourth %v: tFAW not enforced", times[4], times[3])
	}
}

func TestMinBurstCharged(t *testing.T) {
	cfg := DDR4Config(1)
	d := NewDevice(cfg)
	d.Access(0, 0, 4, false) // 4B read
	// The bus must be busy for a full MinBurstBytes transfer.
	wantBusy := sim.Time(float64(cfg.MinBurstBytes) * 8 / cfg.ChannelGbps * float64(sim.Nanosecond))
	if d.channels[0].busyUntil < wantBusy {
		t.Errorf("bus busy %v after 4B read, want >= %v (min burst)", d.channels[0].busyUntil, wantBusy)
	}
}

func TestRowHitsStreamAtBusRate(t *testing.T) {
	// Independent row hits saturate the channel: sustained rate within
	// 10% of the bus rate.
	cfg := DDR4Config(1)
	d := NewDevice(cfg)
	d.Access(0, 0, 64, false) // open the row
	const n = 1000
	var last sim.Time
	for i := 1; i <= n; i++ {
		if done := d.Access(0, int64(i%100)*64, 64, false); done > last {
			last = done
		}
	}
	gbps := float64(n*64*8) / last.Nanoseconds()
	if gbps < cfg.ChannelGbps*0.9 {
		t.Errorf("row-hit stream %.1f Gbps, want near %.1f", gbps, cfg.ChannelGbps)
	}
}
