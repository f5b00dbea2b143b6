package engine

import (
	"fmt"

	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/wire"
)

// EvalQuery evaluates one encrypted query of the wire protocol — a lone
// query or one query of a batch — and returns its candidate set. It is the
// only place where an unranked encrypted query meets the engine: a server
// answering MsgBatchQuery and an in-process DirectClient both call it, so
// the two backends validate and evaluate every query identically. Hostile
// fields (a non-permutation, a missing ranking vector, a zero candidate
// size) become errors, never panics.
func (s *ShardedIndex) EvalQuery(q wire.BatchQuery) ([]mindex.Entry, error) {
	if q.Kind == wire.BatchRange {
		return s.RangeByDists(q.Dists, q.Radius)
	}
	aq, err := s.approxQuery(q)
	if err != nil {
		return nil, err
	}
	if q.Kind == wire.BatchFirstCell {
		return s.FirstCellCandidates(aq)
	}
	return s.ApproxCandidates(aq, int(q.CandSize))
}

// EvalRanked is EvalQuery keeping the source-cell promise and prefix on
// every candidate — what a cluster coordinator needs to merge per-node
// streams in the engine's own shard-merge order (MsgBatchRanked). Range
// candidates are exact and carry no ranking: promise 0 and a nil prefix
// (the coordinator concatenates them instead of merging). A non-nil filter
// restricts the evaluation to the allowed first-level cells (the
// MsgFilteredQuery envelope); nil evaluates the whole engine.
func (s *ShardedIndex) EvalRanked(q wire.BatchQuery, filter mindex.PivotFilter) ([]mindex.RankedCandidate, error) {
	if q.Kind == wire.BatchRange {
		entries, err := s.RangeByDistsFiltered(q.Dists, q.Radius, filter)
		return annotate(entries, 0, nil), err
	}
	aq, err := s.approxQuery(q)
	if err != nil {
		return nil, err
	}
	if q.Kind == wire.BatchFirstCell {
		entries, promise, prefix, err := s.FirstCellRankedFiltered(aq, filter)
		return annotate(entries, promise, prefix), err
	}
	return s.ApproxCandidatesRankedFiltered(aq, int(q.CandSize), filter)
}

// approxQuery assembles the ApproxQuery of a ranked query kind: the
// footrule forms carry the query permutation, validated here, and the
// distance-sum forms the (transformed) distance vector. The index itself
// validates that whatever arrived matches what its configured ranking
// strategy needs.
func (s *ShardedIndex) approxQuery(q wire.BatchQuery) (mindex.ApproxQuery, error) {
	switch q.Kind {
	case wire.BatchApproxPerm:
		ranks, err := s.permRanks(q.Perm)
		return mindex.ApproxQuery{Ranks: ranks}, err
	case wire.BatchApproxDists:
		return mindex.ApproxQuery{Dists: q.Dists, Ranks: pivot.Ranks(pivot.Permutation(q.Dists))}, nil
	case wire.BatchFirstCell:
		// Footrule sends the permutation, distance-sum the distances.
		aq := mindex.ApproxQuery{Dists: q.Dists}
		if len(q.Perm) == 0 {
			return aq, nil
		}
		var err error
		aq.Ranks, err = s.permRanks(q.Perm)
		return aq, err
	}
	return mindex.ApproxQuery{}, fmt.Errorf("unknown query kind %d", q.Kind)
}

// permRanks validates a client-sent permutation and inverts it into ranks.
func (s *ShardedIndex) permRanks(perm []int32) ([]int32, error) {
	if !pivot.ValidPermutation(perm, s.cfg.NumPivots) {
		return nil, fmt.Errorf("request permutation is not a permutation of %d pivots", s.cfg.NumPivots)
	}
	return pivot.Ranks(perm), nil
}

// annotate wraps entries as ranked candidates sharing one source cell's
// promise and prefix.
func annotate(entries []mindex.Entry, promise float64, prefix []int32) []mindex.RankedCandidate {
	rcs := make([]mindex.RankedCandidate, len(entries))
	for i, e := range entries {
		rcs[i] = mindex.RankedCandidate{Entry: e, Promise: promise, Prefix: prefix}
	}
	return rcs
}
