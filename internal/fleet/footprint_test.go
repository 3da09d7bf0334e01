package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"harmonia/internal/apps"
	"harmonia/internal/net"
	"harmonia/internal/platform"
)

// liveHeap reports the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNodeHeapFootprint gates the heap each commissioned node keeps: it
// builds layer4-lb fleets at two sizes and divides the live-heap
// difference by the node-count difference, so fixed costs (shared
// descriptors, the router's shard layout) cancel. It runs alone, not in
// parallel, so no other test's garbage lands in the measurement.
func TestNodeHeapFootprint(t *testing.T) {
	const small, large = 50, 150
	const maxPerNode = 40 << 10
	heapWith := func(n int) int64 {
		before := liveHeap()
		c, err := BuildCluster(DefaultConfig(), testApp, n, n)
		if err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		runtime.KeepAlive(c)
		return int64(after) - int64(before)
	}
	heapWith(small) // warm the shared descriptors and init sequences
	s, l := heapWith(small), heapWith(large)
	perNode := float64(l-s) / (large - small)
	t.Logf("live heap: %d nodes %.1f MB, %d nodes %.1f MB, %.1f KB per node",
		small, float64(s)/(1<<20), large, float64(l)/(1<<20), perNode/1024)
	if perNode > maxPerNode {
		t.Errorf("each node holds %.1f KB of heap, want ≤ %d KB", perNode/1024, maxPerNode>>10)
	}
}

// BenchmarkFleetCommission commissions one layer4-lb node per
// iteration, cycling the compatible catalog models, so B/op and
// allocs/op are per commissioned node.
func BenchmarkFleetCommission(b *testing.B) {
	info, err := apps.Lookup(testApp)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	svc := AppService(info, 1, net.IPv4(20, 0, 0, 1))
	if err := c.AddService(svc); err != nil {
		b.Fatal(err)
	}
	models := compatiblePlatforms(svc)
	plats := make([]*platform.Device, b.N)
	for i := range plats {
		if plats[i], err = platform.Lookup(models[i%len(models)].Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, plat := range plats {
		if _, err := c.Commission(fmt.Sprintf("node-%d", i), plat); err != nil {
			b.Fatal(err)
		}
	}
}
