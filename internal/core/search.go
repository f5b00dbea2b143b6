package core

import (
	"context"
	"fmt"
	"time"

	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// The unified query path of the encrypted client: Search evaluates one
// Query of any kind, SearchBatch pipelines many. Both reveal to the server
// exactly what the corresponding legacy entry point revealed — a
// permutation or a (transformed) distance vector per query, nothing else —
// and both honor ctx end to end: every round trip runs under
// context-derived read/write deadlines, and the pipelined batch path
// checks for cancellation between chunks.

// queryDists computes the query–pivot distance vector (Algorithm 2 line 1),
// charging the client-side distance cost.
func (c *coder) queryDists(q Query, costs *stats.Costs) []float64 {
	distStart := time.Now()
	qDists := c.key.Pivots().Distances(q.Vec)
	costs.DistCompTime += time.Since(distStart)
	costs.DistComps += int64(c.key.Pivots().N())
	return qDists
}

// wireQuery translates one normalized Query (or the approximate first
// phase of a KindKNN query) into its wire form. KindRange reveals the
// transformed distance vector; the approximate kinds reveal the
// permutation (footrule ranking) or transformed distances (distance-sum
// ranking) — identical disclosure to the legacy single-query messages.
func (c *coder) wireQuery(nq Query, qDists []float64) wire.BatchQuery {
	switch nq.Kind {
	case KindRange:
		return wire.BatchQuery{
			Kind:   wire.BatchRange,
			Dists:  c.key.TransformDists(qDists),
			Radius: c.key.TransformRadius(nq.Radius),
		}
	case KindFirstCell:
		if c.opts.Ranking == mindex.RankDistSum {
			return wire.BatchQuery{Kind: wire.BatchFirstCell, Dists: c.key.TransformDists(qDists)}
		}
		return wire.BatchQuery{Kind: wire.BatchFirstCell, Perm: pivot.Permutation(qDists)}
	default: // KindApproxKNN, or the phase-1 approximate pass of KindKNN
		if c.opts.Ranking == mindex.RankDistSum {
			return wire.BatchQuery{
				Kind:     wire.BatchApproxDists,
				Dists:    c.key.TransformDists(qDists),
				CandSize: uint32(effCandSize(nq)),
			}
		}
		return wire.BatchQuery{
			Kind:     wire.BatchApproxPerm,
			Perm:     pivot.Permutation(qDists),
			CandSize: uint32(effCandSize(nq)),
		}
	}
}

// singleMessage maps a wire.BatchQuery onto the equivalent single-query
// protocol message, so a lone Search costs one slim frame instead of a
// batch envelope.
func singleMessage(wq wire.BatchQuery) (wire.MsgType, []byte) {
	switch wq.Kind {
	case wire.BatchRange:
		return wire.MsgRangeDists, wire.RangeDistsReq{Dists: wq.Dists, Radius: wq.Radius}.Encode()
	case wire.BatchApproxDists:
		return wire.MsgApproxDists, wire.ApproxDistsReq{Dists: wq.Dists, CandSize: wq.CandSize}.Encode()
	case wire.BatchFirstCell:
		return wire.MsgFirstCell, wire.FirstCellReq{Perm: wq.Perm, Dists: wq.Dists}.Encode()
	default:
		return wire.MsgApproxPerm, wire.ApproxPermReq{Perm: wq.Perm, CandSize: wq.CandSize}.Encode()
	}
}

// candidates runs one candidate-producing round trip under ctx.
func (c *EncryptedClient) candidates(ctx context.Context, wq wire.BatchQuery, costs *stats.Costs) ([]mindex.Entry, error) {
	reqType, payload := singleMessage(wq)
	respType, resp, err := c.roundTrip(ctx, reqType, payload, costs)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgCandidates {
		return nil, fmt.Errorf("core: unexpected %v response %v", reqType, respType)
	}
	m, err := wire.DecodeCandidatesResp(resp)
	if err != nil {
		return nil, err
	}
	creditServer(costs, m.ServerNanos)
	return m.Entries, nil
}

// Search evaluates one similarity query against the encrypted cloud. The
// candidate exchange and refinement mirror the legacy per-kind entry
// points exactly (identical disclosure, identical results); ctx adds what
// they lacked — its deadline bounds every round trip, and cancelling it
// interrupts an exchange blocked on a stalled server.
func (c *EncryptedClient) Search(ctx context.Context, q Query) ([]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	nq, err := q.normalized()
	if err != nil {
		return nil, costs, err
	}
	out, err := c.searchOne(ctx, nq, &costs)
	if err != nil {
		return nil, costs, err
	}
	finish(&costs, start)
	return out, costs, nil
}

func (c *EncryptedClient) searchOne(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error) {
	if nq.Kind == KindKNN {
		return searchKNN(ctx, nq, costs, c.searchOne)
	}
	qDists := c.queryDists(nq, costs)
	cands, err := c.candidates(ctx, c.wireQuery(nq, qDists), costs)
	if err != nil {
		return nil, err
	}
	return c.finishQuery(nq, cands, costs)
}

// finishQuery applies the per-kind client-side epilogue to a candidate
// set: refinement (partial when RefineLimit is set), the radius filter for
// range queries, distance-sorting, and the K trim. Only the surviving
// results' vectors are copied out of the refine slab.
func (c *coder) finishQuery(nq Query, cands []mindex.Entry, costs *stats.Costs) ([]Result, error) {
	// Partial refinement keeps the pre-ranked most promising prefix;
	// Candidates still counts every candidate transferred, not merely those
	// refined, matching the paper's communication-cost measure.
	skipped := 0
	if nq.RefineLimit > 0 && len(cands) > nq.RefineLimit {
		skipped = len(cands) - nq.RefineLimit
		cands = cands[:nq.RefineLimit]
	}
	r, err := c.refine(nq.Vec, cands, costs)
	if err != nil {
		return nil, err
	}
	costs.Candidates += int64(skipped)
	rs := r.res
	if nq.Kind == KindRange {
		rs = rs[:0]
		for _, res := range r.res {
			if res.Dist <= nq.Radius {
				rs = append(rs, res)
			}
		}
	}
	sortByDist(rs)
	if nq.Kind != KindRange && len(rs) > nq.K {
		rs = rs[:nq.K]
	}
	return r.keep(rs), nil
}

// knnRadius derives the phase-2 range radius ρk from the refined
// approximate answer: the k-th candidate distance upper-bounds the true
// k-th neighbor distance; fewer than k candidates fall back to everything.
func knnRadius(approx []Result, k int) float64 {
	if len(approx) >= k {
		return approx[len(approx)-1].Dist
	}
	return maxRadius
}

// searchKNN composes the two-phase precise k-NN of Section 4.2 —
// approximate pass for ρk, then the exact range query R(q, ρk), both under
// ctx — over any single-kind evaluator. The networked and in-process
// backends share this one composition, so the precision guarantee cannot
// silently diverge between them.
func searchKNN(ctx context.Context, nq Query, costs *stats.Costs,
	searchOne func(ctx context.Context, nq Query, costs *stats.Costs) ([]Result, error)) ([]Result, error) {
	approxQ := Query{Kind: KindApproxKNN, Vec: nq.Vec, K: nq.K, CandSize: nq.CandSize, TargetRecall: nq.TargetRecall}
	approx, err := searchOne(ctx, approxQ, costs)
	if err != nil {
		return nil, err
	}
	rho := knnRadius(approx, nq.K)
	within, err := searchOne(ctx, Query{Kind: KindRange, Vec: nq.Vec, Radius: rho}, costs)
	if err != nil {
		return nil, err
	}
	sortByDist(within)
	if len(within) > nq.K {
		within = within[:nq.K]
	}
	return within, nil
}

// SearchBatch evaluates many queries in pipelined chunks of
// Options.BatchChunk queries each, so the whole workload pays one
// round-trip latency plus streaming instead of one round trip per query.
// Kinds may be mixed freely; precise k-NN queries add one extra pipelined
// wave (their range phase, which needs the first wave's ρk). Results are
// per-query, in input order, refined exactly like Search. ctx cancellation
// is checked between chunks and interrupts blocked IO within one.
func (c *EncryptedClient) SearchBatch(ctx context.Context, qs []Query) ([][]Result, stats.Costs, error) {
	var costs stats.Costs
	start := time.Now()
	if len(qs) == 0 {
		finish(&costs, start)
		return nil, costs, nil
	}
	norm := make([]Query, len(qs))
	for i, q := range qs {
		nq, err := q.normalized()
		if err != nil {
			return nil, costs, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		norm[i] = nq
	}
	wqs := make([]wire.BatchQuery, len(norm))
	for i, nq := range norm {
		wqs[i] = c.wireQuery(nq, c.queryDists(nq, &costs))
	}
	perQuery, err := c.batchCandidates(ctx, wqs, &costs, func(i int) int { return i })
	if err != nil {
		return nil, costs, err
	}

	out := make([][]Result, len(qs))
	var knnIdx []int     // queries needing the phase-2 range wave
	var knnRange []Query // their range queries, radius in original space
	var knnWave []wire.BatchQuery
	for i, nq := range norm {
		if nq.Kind == KindKNN {
			// Phase 1 is refined like an approximate query; ρk feeds wave 2
			// and no vector survives it.
			r, err := c.refine(nq.Vec, perQuery[i], &costs)
			if err != nil {
				return nil, costs, err
			}
			approx := r.res
			sortByDist(approx)
			if len(approx) > nq.K {
				approx = approx[:nq.K]
			}
			rangeQ := Query{Kind: KindRange, Vec: nq.Vec, Radius: knnRadius(approx, nq.K)}
			r.release()
			knnIdx = append(knnIdx, i)
			knnRange = append(knnRange, rangeQ)
			knnWave = append(knnWave, c.wireQuery(rangeQ, c.queryDists(rangeQ, &costs)))
			continue
		}
		res, err := c.finishQuery(nq, perQuery[i], &costs)
		if err != nil {
			return nil, costs, err
		}
		out[i] = res
	}
	if len(knnIdx) > 0 {
		perKNN, err := c.batchCandidates(ctx, knnWave, &costs, func(i int) int { return knnIdx[i] })
		if err != nil {
			return nil, costs, err
		}
		for j, i := range knnIdx {
			// The range epilogue filters by the true ρk (the server pruned
			// conservatively in transformed space), then the K cut applies —
			// exactly the single-query KNN composition.
			within, err := c.finishQuery(knnRange[j], perKNN[j], &costs)
			if err != nil {
				return nil, costs, err
			}
			if len(within) > norm[i].K {
				within = within[:norm[i].K]
			}
			out[i] = within
		}
	}
	finish(&costs, start)
	return out, costs, nil
}

// batchCandidates ships the wire queries as pipelined MsgBatchQuery chunks
// over one leased connection and returns the per-query candidate sets.
// queryIndex maps a position in wqs back to the caller's query index — the
// identity for the first wave, the KNN subset mapping for the second — so
// a server error always names queries by the indices the caller knows.
func (c *EncryptedClient) batchCandidates(ctx context.Context, wqs []wire.BatchQuery, costs *stats.Costs, queryIndex func(int) int) ([][]mindex.Entry, error) {
	chunk := c.opts.BatchChunk
	reqs := make([]frame, 0, c.chunkCount(len(wqs)))
	for at := 0; at < len(wqs); at += chunk {
		reqs = append(reqs, frame{
			typ:     wire.MsgBatchQuery,
			payload: wire.BatchQueryReq{Queries: wqs[at:min(at+chunk, len(wqs))]}.Encode(),
		})
	}
	resps, err := c.exchange(ctx, reqs, costs)
	if err != nil {
		return nil, err
	}
	out := make([][]mindex.Entry, 0, len(wqs))
	for ci, r := range resps {
		if err := respError(r); err != nil {
			lo := ci * chunk
			// The server's "batch query N" counts within this chunk; the
			// wrapped range rebases it onto the caller's query indices.
			return nil, fmt.Errorf("core: query chunk %d (queries %d..%d): %w",
				ci, queryIndex(lo), queryIndex(min(lo+chunk, len(wqs))-1), err)
		}
		if r.typ != wire.MsgBatchCandidates {
			return nil, fmt.Errorf("core: unexpected batch query response %v", r.typ)
		}
		m, err := wire.DecodeBatchQueryResp(r.payload)
		if err != nil {
			return nil, err
		}
		creditServer(costs, m.ServerNanos)
		for _, cands := range m.Results {
			if len(out) >= len(wqs) {
				return nil, fmt.Errorf("core: server returned more batch results than queries")
			}
			out = append(out, cands)
		}
	}
	if len(out) != len(wqs) {
		return nil, fmt.Errorf("core: server returned %d batch results for %d queries", len(out), len(wqs))
	}
	return out, nil
}
