package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"simcloud/internal/core"
	"simcloud/internal/metric"
	"simcloud/internal/pivot"
	"simcloud/internal/stats"
)

// deploySeed fixes what a deployment chooses once: the objects held out of
// the index as query candidates, the pivots and the k-means model. The
// run's --seed then varies only the workload's inputs, the queries and the
// operation sequence, so runs on different seeds measure one deployment.
const deploySeed = 0x5eed

// pickQueries draws the run's query pool of n from the held-out candidates.
func pickQueries(seed uint64, cands []metric.Object, n int) []metric.Object {
	rng := rand.New(rand.NewPCG(seed, 0x71756572)) // "quer"
	out := make([]metric.Object, min(n, len(cands)))
	for i, j := range rng.Perm(len(cands))[:len(out)] {
		out[i] = cands[j]
	}
	return out
}

// deployPivots draws the pivot set from the indexed objects.
func deployPivots(d metric.Distance, objs []metric.Object, n int) *pivot.Set {
	return pivot.SelectRandom(rand.New(rand.NewPCG(deploySeed, 0x70697673)), d, objs, n) // "pivs"
}

// truth is the brute-force answer for one query over the indexed set: the
// k nearest neighbours, the range radius (the k-th neighbour distance, so a
// range query returns about k objects) and the exact range answer.
type truth struct {
	knn     []core.Result // k nearest, by distance then ID
	radius  float64
	inRange map[uint64]float64 // ID → distance of every object within radius
}

// pool is the set of query objects of a workload with their ground truth.
type pool struct {
	dist    metric.Distance
	queries []metric.Object
	truths  []truth
	k       int
}

// groundTruth computes each query's answer by a linear scan of the indexed
// set, over two goroutines.
func groundTruth(d metric.Distance, indexed, queries []metric.Object, k int) *pool {
	p := &pool{dist: d, queries: queries, truths: make([]truth, len(queries)), k: k}
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			all := make([]core.Result, len(indexed))
			for qi := w; qi < len(queries); qi += workers {
				q := queries[qi].Vec
				for i, o := range indexed {
					all[i] = core.Result{ID: o.ID, Dist: d.Dist(q, o.Vec)}
				}
				sort.Slice(all, func(i, j int) bool {
					if all[i].Dist != all[j].Dist {
						return all[i].Dist < all[j].Dist
					}
					return all[i].ID < all[j].ID
				})
				kk := min(k, len(all))
				t := truth{knn: append([]core.Result(nil), all[:kk]...), inRange: map[uint64]float64{}}
				if kk > 0 {
					t.radius = all[kk-1].Dist
				}
				for _, r := range all {
					if r.Dist > t.radius {
						break
					}
					t.inRange[r.ID] = r.Dist
				}
				p.truths[qi] = t
			}
		}(w)
	}
	wg.Wait()
	return p
}

// lowestIDs returns the indices of the n pool queries of lowest ID: a
// subset that does not depend on the seed's pool order.
func (p *pool) lowestIDs(n int) []int {
	order := make([]int, len(p.queries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return p.queries[order[i]].ID < p.queries[order[j]].ID })
	return order[:min(n, len(order))]
}

// windowOps schedules whole passes over the n pool queries of lowest ID.
func (p *pool) windowOps(seed uint64, passes, n, batch int, weights map[opKind]int) (ops []op, passLen int) {
	sub := p.lowestIDs(n)
	ops, passLen = schedule(seed, passes, len(sub), batch, weights)
	for i := range ops {
		qis := make([]int, len(ops[i].qis))
		for j, qi := range ops[i].qis {
			qis[j] = sub[qi]
		}
		ops[i].qis = qis
	}
	return ops, passLen
}

// checkKNN verifies a precise k-NN answer: k results whose distances equal
// the brute-force k nearest distances, each the true distance of its ID.
func (p *pool) checkKNN(qi int, res []core.Result) error {
	t := p.truths[qi]
	if len(res) != len(t.knn) {
		return fmt.Errorf("knn query %d: %d results, want %d", qi, len(res), len(t.knn))
	}
	for i, r := range res {
		if r.Dist != t.knn[i].Dist {
			return fmt.Errorf("knn query %d: result %d at distance %v, want %v", qi, i, r.Dist, t.knn[i].Dist)
		}
		if d, ok := t.inRange[r.ID]; !ok || d != r.Dist {
			return fmt.Errorf("knn query %d: result ID %d is not a true neighbour at %v", qi, r.ID, r.Dist)
		}
	}
	return nil
}

// checkRange verifies a precise range answer at the query's radius: exactly
// the objects within it, each at its true distance.
func (p *pool) checkRange(qi int, res []core.Result) error {
	t := p.truths[qi]
	if len(res) != len(t.inRange) {
		return fmt.Errorf("range query %d: %d results, want %d", qi, len(res), len(t.inRange))
	}
	for _, r := range res {
		if d, ok := t.inRange[r.ID]; !ok || d != r.Dist {
			return fmt.Errorf("range query %d: result ID %d at %v is not within radius %v", qi, r.ID, r.Dist, t.radius)
		}
	}
	return nil
}

// recall returns the approximate answer's recall@k in percent.
func (p *pool) recall(qi int, res []core.Result) float64 {
	got := make([]uint64, len(res))
	for i, r := range res {
		got[i] = r.ID
	}
	want := make([]uint64, len(p.truths[qi].knn))
	for i, r := range p.truths[qi].knn {
		want[i] = r.ID
	}
	return stats.Recall(got, want)
}

// opKind is one kind of benchmark operation.
type opKind int

const (
	opApprox opKind = iota
	opKNN
	opRange
	opFirstCell
	opBatch
)

func (k opKind) String() string {
	return [...]string{"approx", "knn", "range", "first-cell", "batch"}[k]
}

// op is one scheduled operation: its kind and the pool queries it uses
// (one, or batch-many for opBatch).
type op struct {
	kind opKind
	qis  []int
}

// schedule draws a seeded sequence of passes over a pool of nq queries.
// One pass holds weights[k] operations of kind k per pool query (a batch
// operation takes batch queries), in seeded order. Every pass holds the
// same operations, so a run of whole passes measures the same work on
// every seed; seeds differ in order only.
func schedule(seed uint64, passes, nq, batch int, weights map[opKind]int) (ops []op, passLen int) {
	rng := rand.New(rand.NewPCG(seed, 0x6f7073)) // "ops"
	for range passes {
		var pass []op
		for k := opApprox; k <= opBatch; k++ {
			for range weights[k] {
				perm := rng.Perm(nq)
				step := 1
				if k == opBatch {
					step = batch
				}
				for i := 0; i+step <= nq; i += step {
					pass = append(pass, op{kind: k, qis: perm[i : i+step]})
				}
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		ops = append(ops, pass...)
		passLen = len(pass)
	}
	return ops, passLen
}
