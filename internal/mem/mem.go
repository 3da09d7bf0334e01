// Package mem provides a functional model of off-chip FPGA memory
// (DDR4 boards and HBM stacks): channels, banks, row buffers and
// access-pattern-dependent timing, plus an optional sparse backing store
// for contents. The Memory RBB's Ex-functions (address interleaving and
// the hot cache, §3.3.1) and the database-access benchmark (Fig. 18c)
// are built on this model.
package mem

import (
	"fmt"

	"harmonia/internal/sim"
)

// Interleave selects how addresses map onto channels.
type Interleave int

// Address mapping modes.
const (
	// Linear maps address ranges to channels contiguously: channel 0
	// owns the first capacity/N bytes, and sequential streams hammer a
	// single channel.
	Linear Interleave = iota
	// Striped interleaves stripe-sized blocks round-robin across
	// channels (the Memory RBB's address-interleaving Ex-function), so
	// sequential streams engage every channel.
	Striped
)

// String names the mode.
func (i Interleave) String() string {
	switch i {
	case Linear:
		return "linear"
	case Striped:
		return "striped"
	default:
		return fmt.Sprintf("interleave(%d)", int(i))
	}
}

// Config describes a memory device.
type Config struct {
	Kind            string
	Channels        int
	BytesPerChannel int64
	// ChannelGbps is the per-channel peak transfer rate.
	ChannelGbps float64
	// BanksPerChannel and RowBytes shape row-buffer locality.
	BanksPerChannel int
	RowBytes        int64
	// THit is the access latency on a row-buffer hit; TMiss on a miss
	// (precharge + activate + CAS).
	THit  sim.Time
	TMiss sim.Time
	// TRC is the bank-occupancy time of a row activation: a bank that
	// just opened a row cannot start another activation before TRC.
	TRC sim.Time
	// TFAW bounds activation rate: at most four activates may start in
	// any TFAW window per channel.
	TFAW sim.Time
	// MinBurstBytes is the smallest transfer the data bus performs; a
	// 4-byte read still occupies the bus for a full burst.
	MinBurstBytes int
	// Mapping selects the channel-interleaving mode.
	Mapping Interleave
	// StripeBytes is the interleaving granule when Mapping == Striped.
	StripeBytes int64
}

// DDR4Config returns a DDR4 board with the given channel count
// (19.2 GB/s, 16 banks, 8KB rows per channel — DDR4-2400 x64 shape).
func DDR4Config(channels int) Config {
	return Config{
		Kind:            "ddr4",
		Channels:        channels,
		BytesPerChannel: 16 << 30,
		ChannelGbps:     153.6,
		BanksPerChannel: 16,
		RowBytes:        8 << 10,
		THit:            15 * sim.Nanosecond,
		TMiss:           45 * sim.Nanosecond,
		TRC:             45 * sim.Nanosecond,
		TFAW:            30 * sim.Nanosecond,
		MinBurstBytes:   64,
		Mapping:         Linear,
		StripeBytes:     256,
	}
}

// HBMConfig returns an HBM2 stack: 32 pseudo-channels at 14.375 GB/s
// each (460 GB/s aggregate), smaller rows, slightly higher latency.
func HBMConfig() Config {
	return Config{
		Kind:            "hbm",
		Channels:        32,
		BytesPerChannel: 256 << 20,
		ChannelGbps:     115,
		BanksPerChannel: 16,
		RowBytes:        2 << 10,
		THit:            18 * sim.Nanosecond,
		TMiss:           50 * sim.Nanosecond,
		TRC:             48 * sim.Nanosecond,
		TFAW:            32 * sim.Nanosecond,
		MinBurstBytes:   32,
		Mapping:         Linear,
		StripeBytes:     256,
	}
}

// Stats aggregates device activity.
type Stats struct {
	Reads     int64
	Writes    int64
	Bytes     int64
	RowHits   int64
	RowMisses int64
}

type bank struct {
	openRow   int64 // -1 when no row is open
	busyUntil sim.Time
}

type channel struct {
	busyUntil sim.Time
	banks     []bank
	// recentActs holds the start times of the last four row activations
	// for tFAW accounting (index 0 is the oldest).
	recentActs [4]sim.Time
	actCount   int
}

// Device is a functional memory device. It is not safe for concurrent
// use; models drive it from a single simulation goroutine.
type Device struct {
	cfg      Config
	channels []channel
	stats    Stats
	store    *Store
}

// NewDevice returns a device for the configuration. It panics on
// non-positive channel counts or rates, which indicate programmer error.
func NewDevice(cfg Config) *Device {
	if cfg.Channels <= 0 || cfg.ChannelGbps <= 0 || cfg.RowBytes <= 0 || cfg.BanksPerChannel <= 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	if cfg.StripeBytes <= 0 {
		cfg.StripeBytes = 256
	}
	d := &Device{cfg: cfg, channels: make([]channel, cfg.Channels), store: NewStore()}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range d.channels[i].banks {
			d.channels[i].banks[b].openRow = -1
		}
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetMapping switches the interleaving mode (used by the Memory RBB's
// Ex-function and the ablation benchmarks).
func (d *Device) SetMapping(m Interleave) { d.cfg.Mapping = m }

// locate maps an address to (channel, bank, row).
func (d *Device) locate(addr int64) (ch, bk int, row int64) {
	var chIdx, chOffset int64
	switch d.cfg.Mapping {
	case Striped:
		stripe := addr / d.cfg.StripeBytes
		chIdx = stripe % int64(d.cfg.Channels)
		chOffset = (stripe/int64(d.cfg.Channels))*d.cfg.StripeBytes + addr%d.cfg.StripeBytes
	default:
		chIdx = addr / d.cfg.BytesPerChannel
		if chIdx >= int64(d.cfg.Channels) {
			chIdx = int64(d.cfg.Channels) - 1
		}
		chOffset = addr % d.cfg.BytesPerChannel
	}
	row = chOffset / d.cfg.RowBytes
	bk = int(row % int64(d.cfg.BanksPerChannel))
	return int(chIdx), bk, row
}

// Access performs a read or write of size bytes at addr, starting no
// earlier than now, and returns the completion time. Transfers that span
// rows are charged one row activation (the streaming case the
// controller pipelines); callers modelling scattered access issue one
// Access per element.
//
// Three structural constraints shape sustained rates the way real DRAM
// does: the channel data bus serializes transfers (with a minimum burst
// size), a row activation occupies its bank for TRC, and at most four
// activations may start per channel in any TFAW window. Row-buffer hits
// therefore stream at bus rate while scattered misses are
// activation-bound.
func (d *Device) Access(now sim.Time, addr int64, size int, write bool) sim.Time {
	if size <= 0 {
		return now
	}
	chIdx, bkIdx, row := d.locate(addr)
	ch := &d.channels[chIdx]
	b := &ch.banks[bkIdx]

	start := now
	if ch.busyUntil > start {
		start = ch.busyUntil
	}
	var lat sim.Time
	if b.openRow == row {
		lat = d.cfg.THit
		d.stats.RowHits++
	} else {
		// An activation: respect the bank's TRC occupancy and the
		// channel's four-activate window.
		if b.busyUntil > start {
			start = b.busyUntil
		}
		if d.cfg.TFAW > 0 {
			idx := ch.actCount % len(ch.recentActs)
			if ch.actCount >= len(ch.recentActs) {
				if earliest := ch.recentActs[idx] + d.cfg.TFAW; earliest > start {
					start = earliest
				}
			}
			ch.recentActs[idx] = start
			ch.actCount++
		}
		lat = d.cfg.TMiss
		d.stats.RowMisses++
		b.openRow = row
		if d.cfg.TRC > 0 {
			b.busyUntil = start + d.cfg.TRC
		}
	}
	burst := size
	if burst < d.cfg.MinBurstBytes {
		burst = d.cfg.MinBurstBytes
	}
	transfer := sim.Time(float64(burst) * 8 / d.cfg.ChannelGbps * float64(sim.Nanosecond))
	if transfer < 1 {
		transfer = 1
	}
	done := start + lat + transfer
	// The channel's data bus is occupied for the transfer, not the
	// activation latency, so back-to-back row hits stream at full rate.
	ch.busyUntil = start + transfer
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	d.stats.Bytes += int64(size)
	return done
}

// Write stores data at addr in the backing store and models the timing;
// it returns the completion time.
func (d *Device) Write(now sim.Time, addr int64, data []byte) sim.Time {
	d.store.Write(addr, data)
	return d.Access(now, addr, len(data), true)
}

// Read fetches size bytes at addr from the backing store and models the
// timing; it returns the data and completion time.
func (d *Device) Read(now sim.Time, addr int64, size int) ([]byte, sim.Time) {
	data := d.store.Read(addr, size)
	done := d.Access(now, addr, size, false)
	return data, done
}

// Peek fetches contents without modelling timing — used by on-chip
// caches that already charged their own latency.
func (d *Device) Peek(addr int64, size int) []byte {
	return d.store.Read(addr, size)
}
