package apps

import (
	"fmt"

	"harmonia/internal/net"
)

// maglevTableSize is the lookup table size (prime, per the Maglev
// paper; production uses 65537, tests are fine with smaller primes).
const maglevTableSize = 2039

// maglevHash hashes a backend address with a salt.
func maglevHash(b net.IPAddr, salt uint64) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) ^ salt*0x9e3779b97f4a7c15
	for _, oct := range b {
		h ^= uint64(oct)
		h *= prime64
	}
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Maglev is the consistent-hashing lookup table of Eisenbud et al. —
// the connection-scheduler the paper's Layer-4 LB lineage (Maglev,
// Tiara) builds on. Every backend fills ~1/N of the table, and pool
// changes disturb a minimal fraction of entries.
type Maglev struct {
	backends []net.IPAddr
	table    []int32
}

// NewMaglev builds the lookup table for a backend pool.
func NewMaglev(backends []net.IPAddr) (*Maglev, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("apps: maglev needs at least one backend")
	}
	if len(backends) > maglevTableSize {
		return nil, fmt.Errorf("apps: %d backends exceed table size %d", len(backends), maglevTableSize)
	}
	m := &Maglev{
		backends: append([]net.IPAddr(nil), backends...),
		table:    make([]int32, maglevTableSize),
	}
	m.populate()
	return m, nil
}

// populate fills the table with each backend's preference permutation,
// exactly as the Maglev paper describes.
func (m *Maglev) populate() {
	n := len(m.backends)
	offsets := make([]uint64, n)
	skips := make([]uint64, n)
	next := make([]uint64, n)
	for i, b := range m.backends {
		offsets[i] = maglevHash(b, 1) % maglevTableSize
		skips[i] = maglevHash(b, 2)%(maglevTableSize-1) + 1
	}
	for i := range m.table {
		m.table[i] = -1
	}
	filled := 0
	for filled < maglevTableSize {
		for i := 0; i < n && filled < maglevTableSize; i++ {
			// Walk backend i's permutation to its next free slot.
			for {
				slot := (offsets[i] + next[i]*skips[i]) % maglevTableSize
				next[i]++
				if m.table[slot] < 0 {
					m.table[slot] = int32(i)
					filled++
					break
				}
			}
		}
	}
}

// Lookup maps a flow to its backend.
func (m *Maglev) Lookup(key net.FlowKey) net.IPAddr {
	return m.backends[m.table[key.Hash()%maglevTableSize]]
}

// Backends returns the pool the table was built over.
func (m *Maglev) Backends() []net.IPAddr {
	return append([]net.IPAddr(nil), m.backends...)
}

// Disruption reports the fraction of table entries that map to
// different backends under another table — the consistency metric.
func (m *Maglev) Disruption(o *Maglev) float64 {
	changed := 0
	for i := range m.table {
		if m.backends[m.table[i]] != o.backends[o.table[i]] {
			changed++
		}
	}
	return float64(changed) / float64(len(m.table))
}
