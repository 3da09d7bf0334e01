package apps

import (
	"container/heap"
	"fmt"

	"harmonia/internal/hdl"
	"harmonia/internal/ip"
	"harmonia/internal/platform"
	"harmonia/internal/rbb"
	"harmonia/internal/shell"
	"harmonia/internal/sim"
	"harmonia/internal/workload"
)

// RetrievalInfo describes the embedding-retrieval accelerator: a
// look-aside engine computing similarity scores and top-K selection
// over a corpus in device memory (FAERY-style, §5.1).
func RetrievalInfo() Info {
	return Info{
		Name:         "retrieval",
		Architecture: LookAside,
		Kind:         "computation",
		Demands: shell.Demands{
			Memory: []shell.MemoryDemand{{Kind: ip.HBMMem}, {Kind: ip.DDR4Mem}},
			Host:   &shell.HostDemand{Queues: 256},
		},
		RoleLoC:    9_300,
		RoleRes:    hdl.Resources{LUT: 180_000, REG: 260_000, BRAM: 350, URAM: 80, DSP: 2_048},
		Categories: []string{"pcie-dma", "pcie-phy", "hbm", "ddr4", "mgmt", "uck"},
	}
}

// Retrieval is the functional engine. The corpus lives in the Memory
// RBB's device; queries stream the corpus, score rows with dot
// products in DSP lanes, and keep the top K in an on-chip heap.
type Retrieval struct {
	Mem  *rbb.MemoryRBB
	Host *rbb.HostRBB
	clk  *sim.Clock
	dim  int
	// lanes is the DSP parallelism: elements scored per cycle.
	lanes   int
	corpus  []workload.Embedding
	queries int64
}

// NewRetrieval builds the engine with the given embedding dimension and
// DSP lane count.
func NewRetrieval(vendor platform.Vendor, dim, lanes int, harmonia bool) (*Retrieval, error) {
	if dim <= 0 || lanes <= 0 {
		return nil, fmt.Errorf("apps: invalid retrieval config dim=%d lanes=%d", dim, lanes)
	}
	clk := UserClock()
	m, err := rbb.NewMemory(vendor, ip.HBMMem, clk, UserWidth)
	if err != nil {
		return nil, err
	}
	h, err := rbb.NewHost(vendor, 4, 8, ip.SGDMA, clk, UserWidth)
	if err != nil {
		return nil, err
	}
	m.SetNative(!harmonia)
	h.SetNative(!harmonia)
	return &Retrieval{Mem: m, Host: h, clk: clk, dim: dim, lanes: lanes}, nil
}

// RowBytes reports the stored size of one embedding row.
func (r *Retrieval) RowBytes() int { return 4 * r.dim }

// LoadCorpus installs the corpus (functionally, into the role's view;
// the memory device holds the bytes for timing).
func (r *Retrieval) LoadCorpus(now sim.Time, corpus []workload.Embedding) (done sim.Time, err error) {
	for i := range corpus {
		if len(corpus[i].Vec) != r.dim {
			return now, fmt.Errorf("apps: corpus row %d has dim %d, want %d", i, len(corpus[i].Vec), r.dim)
		}
	}
	r.corpus = corpus
	done = now
	row := make([]byte, r.RowBytes())
	for i := range corpus {
		done = r.Mem.Write(done, int64(i)*int64(r.RowBytes()), row)
	}
	return done, nil
}

// scored pairs an id with its similarity for the top-K heap.
type scored struct {
	id    uint32
	score float32
}

// minHeap keeps the K best scores with the worst on top.
type minHeap []scored

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i].score < h[j].score }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *minHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
func (h minHeap) worst() float32 { return h[0].score }

// Query scores the corpus against q and returns the top-K ids (best
// first) plus the completion time. Timing overlaps memory streaming
// with compute: the engine is bound by the slower of corpus bandwidth
// and DSP throughput, plus the host round trip.
func (r *Retrieval) Query(now sim.Time, q []float32, k int) (ids []uint32, done sim.Time, err error) {
	if len(q) != r.dim {
		return nil, now, fmt.Errorf("apps: query dim %d, want %d", len(q), r.dim)
	}
	if k <= 0 || len(r.corpus) == 0 {
		return nil, now, fmt.Errorf("apps: empty corpus or k=%d", k)
	}
	// Functional scoring with a K-element min-heap (the top-K selection
	// unit).
	h := make(minHeap, 0, k)
	for _, row := range r.corpus {
		s := workload.Dot(q, row.Vec)
		if len(h) < k {
			heap.Push(&h, scored{id: row.ID, score: s})
		} else if s > h.worst() {
			h[0] = scored{id: row.ID, score: s}
			heap.Fix(&h, 0)
		}
	}
	ids = make([]uint32, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		ids[i] = heap.Pop(&h).(scored).id
	}

	// Timing: query download, corpus streaming vs compute, result
	// upload.
	qIn, err := r.Host.Receive(now, 0, r.RowBytes())
	if err != nil {
		return nil, now, err
	}
	done = qIn + r.scanTime(int64(len(r.corpus)))
	done, err = r.Host.Send(done, 0, 8*k)
	if err != nil {
		return nil, now, err
	}
	r.queries++
	return ids, done, nil
}

// scanTime reports the corpus-scan duration for n rows: the max of the
// memory-stream time and the DSP compute time (fully overlapped
// pipeline), plus the wrapper's fixed latency.
func (r *Retrieval) scanTime(n int64) sim.Time {
	rowBytes := int64(r.RowBytes())
	memGbps := r.Mem.Spec().PeakGbps * 0.85 // stream efficiency
	streamNs := float64(n*rowBytes*8) / memGbps
	computeCycles := n * int64(r.dim) / int64(r.lanes)
	computeNs := float64(r.clk.CyclesTime(computeCycles)) / float64(sim.Nanosecond)
	ns := streamNs
	if computeNs > ns {
		ns = computeNs
	}
	return sim.Time(ns*float64(sim.Nanosecond)) + r.Mem.WrapperLatency()
}

// QPS reports the analytic query rate for a corpus of n rows — used for
// the large-corpus sweep of Fig. 17d, where materializing the corpus is
// infeasible.
func (r *Retrieval) QPS(n int64) float64 {
	t := r.scanTime(n) + 2*sim.Microsecond // host round trip
	if t <= 0 {
		return 0
	}
	return 1 / t.Seconds()
}
