// Package engine hosts the server-side index engine: a ShardedIndex that
// partitions the M-Index across independently locked shards and fans
// searches out across a bounded worker pool (internal/fanout), converting
// the serving hot path from lock-serialized to core-parallel.
//
// # Key invariant: routing and merge order
//
// An entry whose pivot permutation starts with pivot p is routed to shard
// p mod N (see DESIGN.md §Sharding). Every first-level Voronoi cell — the
// set of objects sharing a closest pivot — is therefore wholly contained
// in exactly one shard. Because all M-Index pruning and filtering bounds
// are evaluated per cell and per entry, each shard answers range queries
// exactly over its partition, and the global range result is the plain
// concatenation of the per-shard results: no cross-shard re-filtering is
// ever needed for correctness.
//
// Approximate candidates are collected per shard in promise order and
// merged by (promise, prefix, shard) via internal/merge — the one shared
// implementation of Algorithm 4's "next promising Voronoi cell" discipline
// across partitions, also used by the cluster coordinator
// (internal/cluster) to merge whole servers. ApproxCandidatesRanked keeps
// the per-candidate annotations so that outer aggregation layer can repeat
// the identical merge.
//
// With Shards <= 1 the engine is a transparent wrapper around a single
// mindex.Index and reproduces its results byte for byte.
//
// # One evaluator of a wire query
//
// EvalQuery is the only place an encrypted query of the wire protocol
// (wire.BatchQuery) meets the engine: the server answers MsgBatchQuery
// with it and the in-process DirectClient calls it too, so both validate
// the client-sent permutation and evaluate every kind identically.
// EvalRanked is its ranked, optionally pivot-filtered counterpart for the
// cluster coordinator's MsgBatchRanked fan-out.
package engine
