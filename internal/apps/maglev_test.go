package apps

import (
	"testing"
	"testing/quick"

	"harmonia/internal/net"
)

func pool(n int) []net.IPAddr {
	out := make([]net.IPAddr, n)
	for i := range out {
		out[i] = net.IPv4(10, 0, byte(i>>8), byte(i))
	}
	return out
}

func TestMaglevValidation(t *testing.T) {
	if _, err := NewMaglev(nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := NewMaglev(pool(maglevTableSize + 1)); err == nil {
		t.Error("oversized pool accepted")
	}
}

func TestMaglevEvenShares(t *testing.T) {
	// Each backend owns about 1/N of the table.
	backends := pool(8)
	m, err := NewMaglev(backends)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		share := share(m, b)
		if share < 0.08 || share > 0.17 {
			t.Errorf("backend %v share = %.3f, want about 0.125", b, share)
		}
	}
	if share(m, net.IPv4(99, 99, 99, 99)) != 0 {
		t.Error("foreign backend has a share")
	}
}

func TestMaglevDeterministicLookup(t *testing.T) {
	backends := pool(5)
	m1, _ := NewMaglev(backends)
	m2, _ := NewMaglev(backends)
	key := net.FlowKey{SrcIP: net.IPv4(1, 2, 3, 4), DstIP: net.IPv4(20, 0, 0, 1),
		Proto: net.ProtoTCP, SrcPort: 1234, DstPort: 80}
	if m1.Lookup(key) != m2.Lookup(key) {
		t.Error("identical tables disagree")
	}
	if m1.Disruption(m2) != 0 {
		t.Error("identical tables report disruption")
	}
}

func TestMaglevMinimalDisruption(t *testing.T) {
	// The consistency headline: removing one of N backends remaps about
	// 1/N of the table, far below what mod-hash would (which remaps
	// ~ (N-1)/N of entries).
	const n = 10
	backends := pool(n)
	full, err := NewMaglev(backends)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewMaglev(backends[1:]) // drop backend 0
	if err != nil {
		t.Fatal(err)
	}
	d := full.Disruption(reduced)
	// All of backend 0's ~10% must move, plus a small consistency tax.
	if d < 0.08 {
		t.Errorf("disruption %.3f too low — backend 0's entries must move", d)
	}
	if d > 0.25 {
		t.Errorf("disruption %.3f, want close to 1/N (~0.10-0.2)", d)
	}
	// Compare with naive mod-hash disruption, which reshuffles nearly
	// everything when the modulus changes.
	modDisrupt := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		key := net.FlowKey{SrcIP: net.IPv4(1, 1, byte(i>>8), byte(i)),
			DstIP: net.IPv4(20, 0, 0, 1), Proto: net.ProtoTCP,
			SrcPort: uint16(i), DstPort: 80}
		h := key.Hash()
		if backends[h%uint64(n)] != backends[1:][h%uint64(n-1)] {
			modDisrupt++
		}
	}
	naive := float64(modDisrupt) / trials
	if d >= naive {
		t.Errorf("maglev disruption %.3f not below naive mod-hash %.3f", d, naive)
	}
}

func TestMaglevSurvivingMappingsStable(t *testing.T) {
	// Flows that mapped to surviving backends overwhelmingly keep them.
	const n = 8
	backends := pool(n)
	full, _ := NewMaglev(backends)
	reduced, _ := NewMaglev(backends[1:])
	kept, total := 0, 0
	for i := 0; i < 3000; i++ {
		key := net.FlowKey{SrcIP: net.IPv4(2, 2, byte(i>>8), byte(i)),
			DstIP: net.IPv4(20, 0, 0, 1), Proto: net.ProtoTCP,
			SrcPort: uint16(i), DstPort: 443}
		before := full.Lookup(key)
		if before == backends[0] {
			continue // this flow's backend was drained
		}
		total++
		if reduced.Lookup(key) == before {
			kept++
		}
	}
	if frac := float64(kept) / float64(total); frac < 0.90 {
		t.Errorf("only %.2f of surviving mappings stable, want > 0.90", frac)
	}
}

func TestMaglevLookupAlwaysInPool(t *testing.T) {
	backends := pool(6)
	m, _ := NewMaglev(backends)
	inPool := map[net.IPAddr]bool{}
	for _, b := range backends {
		inPool[b] = true
	}
	f := func(sp, dp uint16, a, b, c, d byte) bool {
		key := net.FlowKey{SrcIP: net.IPAddr{a, b, c, d}, DstIP: net.IPv4(20, 0, 0, 1),
			Proto: net.ProtoTCP, SrcPort: sp, DstPort: dp}
		return inPool[m.Lookup(key)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaglevRemovalDisruptionBoundProperty(t *testing.T) {
	// Property: across pool sizes, removing ANY single backend disrupts
	// at most share(removed) + ε of table entries — every entry of the
	// removed backend must move, plus only a small consistency tax on
	// the survivors. With even shares that is ≈ 1/N + ε.
	const epsilon = 0.05
	for _, n := range []int{2, 3, 5, 8, 16, 32} {
		backends := pool(n)
		full, err := NewMaglev(backends)
		if err != nil {
			t.Fatal(err)
		}
		for drop := 0; drop < n; drop++ {
			var rest []net.IPAddr
			rest = append(rest, backends[:drop]...)
			rest = append(rest, backends[drop+1:]...)
			if len(rest) == 0 {
				continue
			}
			reduced, err := NewMaglev(rest)
			if err != nil {
				t.Fatal(err)
			}
			d := full.Disruption(reduced)
			share := share(full, backends[drop])
			if d < share {
				t.Errorf("n=%d drop=%d: disruption %.4f below removed share %.4f", n, drop, d, share)
			}
			if d > share+epsilon {
				t.Errorf("n=%d drop=%d: disruption %.4f exceeds share %.4f + ε %.2f — not minimal",
					n, drop, d, share, epsilon)
			}
			if d > 1.0/float64(n)+2*epsilon {
				t.Errorf("n=%d drop=%d: disruption %.4f far above 1/N = %.4f", n, drop, d, 1.0/float64(n))
			}
		}
	}
}

func TestMaglevSharesSumToOneProperty(t *testing.T) {
	// Property: across pool sizes the table is a partition — every
	// entry is owned by exactly one backend, so shares sum to 1.
	for _, n := range []int{1, 2, 3, 7, 20, 100} {
		backends := pool(n)
		m, err := NewMaglev(backends)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, b := range backends {
			s := share(m, b)
			if s <= 0 {
				t.Errorf("n=%d: backend %v owns no entries", n, b)
			}
			sum += s
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Errorf("n=%d: shares sum to %.12f, want 1", n, sum)
		}
	}
}

func TestMaglevSingleBackend(t *testing.T) {
	m, err := NewMaglev(pool(1))
	if err != nil {
		t.Fatal(err)
	}
	key := net.FlowKey{SrcPort: 1}
	if m.Lookup(key) != pool(1)[0] {
		t.Error("single-backend lookup wrong")
	}
	if share(m, pool(1)[0]) != 1 {
		t.Error("single backend should own the whole table")
	}
}

// share reports the fraction of m's table entries owned by backend b.
func share(m *Maglev, b net.IPAddr) float64 {
	n := 0
	for i, cand := range m.backends {
		if cand != b {
			continue
		}
		for _, e := range m.table {
			if e == int32(i) {
				n++
			}
		}
	}
	return float64(n) / float64(len(m.table))
}
