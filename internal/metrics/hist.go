package metrics

import (
	"math/bits"

	"harmonia/internal/sim"
)

// Histogram is a fixed-size log-scale latency histogram: O(1) add,
// O(1) merge per bucket, bounded memory regardless of sample count.
// It is the streaming counterpart of Latencies for high-volume
// collectors (the fleet router records millions of per-packet samples
// per phase). Latencies remains the exact-sample type: the exact oracle
// the histogram's tests check against, and the secgateway example's
// recorder.
//
// Values bucket by octave (floor log2) with histSub linear sub-buckets
// per octave, so the relative quantization error of a reported
// percentile is bounded by 1/histSub (~6%). Min, Max, Count and Sum
// (hence Mean) are tracked exactly.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

const (
	// histSubBits sub-bucket bits per octave: 16 linear sub-buckets.
	histSubBits = 4
	histSub     = 1 << histSubBits
	// Values below histSub land in exact unit buckets 0..histSub-1;
	// octaves 4..62 (full positive int64 range) each take histSub
	// buckets above them.
	histBuckets = histSub * (64 - histSubBits)
)

// histBucket maps a sample to its bucket index.
func histBucket(v sim.Time) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	octave := bits.Len64(uint64(v)) - 1
	sub := int(v>>(uint(octave)-histSubBits)) & (histSub - 1)
	return histSub*(octave-histSubBits+1) + sub
}

// histLower is the smallest value mapping to a bucket — the value a
// percentile query reports for it.
func histLower(bucket int) sim.Time {
	if bucket < histSub {
		return sim.Time(bucket)
	}
	octave := bucket/histSub + histSubBits - 1
	sub := bucket % histSub
	return sim.Time(histSub+sub) << (uint(octave) - histSubBits)
}

// Add records one sample.
func (h *Histogram) Add(v sim.Time) {
	h.counts[histBucket(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Merge folds another histogram into this one. Merging is exact: the
// result is identical to having added both sample streams to one
// histogram, in any order.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset clears the histogram for a new measurement window.
func (h *Histogram) Reset() { *h = Histogram{} }

// Percentile reports the p-th percentile (0 < p <= 100) by
// nearest-rank over the buckets; the reported value is the lower bound
// of the selected bucket, clamped into [Min, Max]. Zero samples report
// zero.
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.n))
	if float64(rank)*100 < p*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := histLower(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CumBuckets calls f for each non-empty bucket in ascending order
// with the bucket's inclusive upper bound and the cumulative sample
// count through it — the shape a Prometheus histogram exposition
// needs. The final upper bound is clamped to the exact Max so the
// last bucket never overstates the distribution's reach.
func (h *Histogram) CumBuckets(f func(upper sim.Time, cum int64)) {
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		upper := h.max
		if i+1 < histBuckets {
			if u := histLower(i+1) - 1; u < upper {
				upper = u
			}
		}
		f(upper, cum)
	}
}

// Sum reports the exact total of the recorded samples.
func (h *Histogram) Sum() sim.Time { return h.sum }

// Max reports the exact largest sample.
func (h *Histogram) Max() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.max
}
