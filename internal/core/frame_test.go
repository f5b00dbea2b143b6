package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"simcloud/internal/metric"
)

// checkIdentical reports an error unless got equals want bit for bit: IDs,
// distances and vectors. It is safe to call from any goroutine.
func checkIdentical(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) ||
			g.Object.ID != w.Object.ID || len(g.Object.Vec) != len(w.Object.Vec) {
			t.Errorf("%s: result %d = (%d, %v), want (%d, %v)", what, i, g.ID, g.Dist, w.ID, w.Dist)
			return
		}
		for d := range w.Object.Vec {
			if math.Float32bits(g.Object.Vec[d]) != math.Float32bits(w.Object.Vec[d]) {
				t.Errorf("%s: result %d (ID %d) dim %d differs", what, i, g.ID, d)
				return
			}
		}
	}
}

func cloneResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		r.Object.Vec = append(metric.Vector(nil), r.Object.Vec...)
		out[i] = r
	}
	return out
}

// TestCandidateFramesOutliveRefine: the encrypted client reads candidate
// frames into pooled buffers that the candidates' payloads alias, and hands
// a buffer back only once refine has decrypted everything out of it.
// Answers held from every query kind — the two-phase KNN and a SearchBatch
// included — must still equal the plaintext after many concurrent queries
// on the same client have reused those buffers, and every concurrent
// answer must equal the one its query got alone. A frame returned before
// its refine finished would hand another query's response bytes to this
// refine, a decrypt failure or a wrong answer. Run it under -race, where
// wire.PutBuffer also zeroes the returned frame, so such a refine fails on
// every query rather than only when the scheduler interleaves badly.
func TestCandidateFramesOutliveRefine(t *testing.T) {
	client, ds, _ := testCloud(t, Options{StoreDists: true}, true)
	plain := make(map[uint64]metric.Vector, len(ds.Objects))
	for _, o := range ds.Objects {
		plain[o.ID] = o.Vec
	}
	ctx := context.Background()
	var qs []Query
	for i := range 6 {
		v := ds.Objects[i*97].Vec
		qs = append(qs,
			Query{Kind: KindApproxKNN, Vec: v, K: 10, CandSize: 200},
			Query{Kind: KindRange, Vec: v, Radius: 6},
			Query{Kind: KindKNN, Vec: v, K: 10, CandSize: 80},
			Query{Kind: KindFirstCell, Vec: v, K: 10},
		)
	}
	held := make([][]Result, len(qs))
	for i, q := range qs {
		rs, _, err := client.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) == 0 {
			t.Fatalf("query %d (kind %v) found nothing", i, q.Kind)
		}
		checkOwnVectors(t, "alone", rs, plain)
		held[i] = rs
	}
	heldBatch, _, err := client.SearchBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Result, len(qs))
	for i := range held {
		checkIdentical(t, fmt.Sprintf("batch query %d", i), heldBatch[i], held[i])
		want[i] = cloneResults(held[i])
	}

	// Each worker alternates a Search with a SearchBatch, whose response
	// reader is a fresh goroutine, so buffers change hands between
	// goroutines.
	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 13))
			for range 20 {
				i := rng.IntN(len(qs))
				rs, _, err := client.Search(ctx, qs[i])
				if err != nil {
					t.Error(err)
					return
				}
				checkIdentical(t, fmt.Sprintf("concurrent query %d", i), rs, want[i])
				lo := rng.IntN(len(qs))
				hi := min(lo+5, len(qs))
				out, _, err := client.SearchBatch(ctx, qs[lo:hi])
				if err != nil {
					t.Error(err)
					return
				}
				for j, rs := range out {
					checkIdentical(t, fmt.Sprintf("concurrent batch query %d", lo+j), rs, want[lo+j])
				}
			}
		}()
	}
	wg.Wait()
	for i := range qs {
		checkIdentical(t, fmt.Sprintf("held answer %d", i), held[i], want[i])
		checkIdentical(t, fmt.Sprintf("held batch answer %d", i), heldBatch[i], want[i])
		checkOwnVectors(t, "held", held[i], plain)
	}
}
