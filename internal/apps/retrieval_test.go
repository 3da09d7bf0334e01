package apps

import (
	"sort"
	"testing"

	"harmonia/internal/platform"
	"harmonia/internal/workload"
)

func newRetrieval(t *testing.T) *Retrieval {
	t.Helper()
	r, err := NewRetrieval(platform.Xilinx, 16, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRetrievalTopKCorrect(t *testing.T) {
	r := newRetrieval(t)
	corpus := workload.Embeddings(200, 16, 11)
	if _, err := r.LoadCorpus(0, corpus); err != nil {
		t.Fatal(err)
	}
	q := workload.Embeddings(1, 16, 99)[0].Vec
	const k = 10
	ids, done, err := r.Query(0, q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != k {
		t.Fatalf("got %d ids, want %d", len(ids), k)
	}
	if done <= 0 {
		t.Error("query took no time")
	}
	// Brute-force reference.
	type sc struct {
		id uint32
		s  float32
	}
	ref := make([]sc, len(corpus))
	for i, row := range corpus {
		ref[i] = sc{row.ID, workload.Dot(q, row.Vec)}
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i].s > ref[j].s })
	want := map[uint32]bool{}
	for i := 0; i < k; i++ {
		want[ref[i].id] = true
	}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("id %d not in true top-%d", id, k)
		}
	}
	// Best-first ordering.
	if ids[0] != ref[0].id {
		t.Errorf("first result %d, want %d", ids[0], ref[0].id)
	}
	if r.queries != 1 {
		t.Errorf("queries = %d", r.queries)
	}
}

func TestRetrievalValidation(t *testing.T) {
	if _, err := NewRetrieval(platform.Xilinx, 0, 8, true); err == nil {
		t.Error("zero dim accepted")
	}
	r := newRetrieval(t)
	if _, err := r.LoadCorpus(0, workload.Embeddings(5, 8, 1)); err == nil {
		t.Error("dim-mismatched corpus accepted")
	}
	corpus := workload.Embeddings(10, 16, 1)
	r.LoadCorpus(0, corpus)
	if _, _, err := r.Query(0, make([]float32, 7), 5); err == nil {
		t.Error("dim-mismatched query accepted")
	}
	if _, _, err := r.Query(0, make([]float32, 16), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRetrievalQPSDecreasesWithCorpus(t *testing.T) {
	// Fig. 17d shape: QPS falls as the corpus grows.
	r := newRetrieval(t)
	var prev float64
	for i, n := range []int64{1e3, 1e5, 1e7, 1e9} {
		qps := r.QPS(n)
		if qps <= 0 {
			t.Fatalf("QPS(%d) = %v", n, qps)
		}
		if i > 0 && qps >= prev {
			t.Errorf("QPS did not fall from %v to corpus %d", prev, n)
		}
		prev = qps
	}
	// Small corpora are bounded by the host round trip: hundreds of
	// thousands of QPS, not billions.
	if r.QPS(1e3) > 1e6 {
		t.Errorf("QPS(1e3) = %v, want sub-million", r.QPS(1e3))
	}
}

func TestRetrievalMoreLanesFaster(t *testing.T) {
	slow, _ := NewRetrieval(platform.Xilinx, 64, 4, true)
	fast, _ := NewRetrieval(platform.Xilinx, 64, 64, true)
	// At a compute-bound corpus, more DSP lanes raise QPS.
	n := int64(1e6)
	if fast.QPS(n) <= slow.QPS(n) {
		t.Errorf("64 lanes (%.0f QPS) not faster than 4 lanes (%.0f QPS)",
			fast.QPS(n), slow.QPS(n))
	}
}

func TestRetrievalHarmoniaOverheadTiny(t *testing.T) {
	with, _ := NewRetrieval(platform.Xilinx, 64, 32, true)
	without, _ := NewRetrieval(platform.Xilinx, 64, 32, false)
	n := int64(1e6)
	qw, qn := with.QPS(n), without.QPS(n)
	if qw > qn {
		t.Error("harmonia QPS should not exceed native")
	}
	if (qn-qw)/qn > 0.01 {
		t.Errorf("QPS penalty %.3f%%, want < 1%%", (qn-qw)/qn*100)
	}
}
