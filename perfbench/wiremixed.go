package main

import (
	"context"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
)

// HUMAN stand-in parameters of the paper's Table 2, and the query shape
// of wire-mixed.
const (
	humanPivots   = 50
	humanMaxLevel = 6
	humanBucket   = 250
	mixK          = 30
	mixCandSize   = 400
	mixBatch      = 4
	// loadChunk is the objects per insert call of a load; small chunks
	// give the ingest latencies enough samples that one GC pause does not
	// decide them.
	loadChunk = 16
	// ingestShare is the share of --seconds a workload without a writer
	// spends in measureIngest after its read window.
	ingestShare = 5
)

func nop(string, ...any) {}

// humanData returns the HUMAN collection (a prefix of it in tiny mode),
// the first n held-out objects as the query pool in the run's seeded
// order, and the indexed rest.
func humanData(e *env, n int) (ds *dataset.Dataset, queries, indexed []metric.Object) {
	ds = dataset.Human()
	held := 200
	if e.tiny {
		ds.Objects = ds.Objects[:600]
		held = 12
	}
	cands, indexed := dataset.SampleQueries(ds, held, deploySeed, true)
	cands = cands[:min(n, held)]
	return ds, pickQueries(e.seed, cands, len(cands)), indexed
}

// encServer is one encrypted server on loopback TCP.
func encServer(cfg mindex.Config) (*server.Server, error) {
	srv, err := server.NewEncrypted(cfg)
	if err != nil {
		return nil, err
	}
	srv.Logf = nop
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

type wireWorld struct {
	srv     *server.Server
	client  *core.EncryptedClient
	key     *secret.Key
	pool    *pool
	indexed []metric.Object
	dim     int
}

func (w *wireWorld) Close() {
	w.client.Close()
	w.srv.Close()
}

// mixQuery builds the queries of each kind of an M-Index workload, with
// the given candidate-set size for the approximate kinds.
func mixQuery(p *pool, candSize int) func(opKind, int) core.Query {
	return func(kind opKind, qi int) core.Query {
		v := p.queries[qi].Vec
		switch kind {
		case opKNN:
			return core.Query{Kind: core.KindKNN, Vec: v, K: p.k, CandSize: candSize}
		case opRange:
			return core.Query{Kind: core.KindRange, Vec: v, Radius: p.truths[qi].radius}
		case opFirstCell:
			return core.Query{Kind: core.KindFirstCell, Vec: v, K: p.k}
		default:
			return core.Query{Kind: core.KindApproxKNN, Vec: v, K: p.k, CandSize: candSize}
		}
	}
}

// warm runs approximate and precise k-NN queries, before their ground
// truth exists, for the 20 pool queries of lowest ID, so that every seed
// warms up on the same queries.
func warm(ctx context.Context, s core.Searcher, p *pool, query func(opKind, int) core.Query) error {
	for _, qi := range p.lowestIDs(20) {
		for _, k := range []opKind{opApprox, opKNN} {
			if _, _, err := s.Search(ctx, query(k, qi)); err != nil {
				return err
			}
		}
	}
	return nil
}

// wireDeploy hosts an encrypted server with memory buckets on loopback TCP
// and dials an encrypted client of it.
func wireDeploy(key *secret.Key) (*server.Server, *core.EncryptedClient, error) {
	srv, err := encServer(mindex.Config{
		NumPivots: humanPivots, MaxLevel: humanMaxLevel, BucketCapacity: humanBucket,
		Storage: mindex.StorageMemory, Ranking: mindex.RankFootrule,
	})
	if err != nil {
		return nil, nil, err
	}
	client, err := core.DialEncrypted(srv.Addr(), key, core.Options{
		MaxLevel: humanMaxLevel, StoreDists: true, Ranking: mindex.RankFootrule,
	})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, client, nil
}

// buildWire deploys the encrypted server and loads the indexed objects
// through its client.
func buildWire(ctx context.Context, e *env) (*wireWorld, error) {
	ds, queries, indexed := humanData(e, 200)
	pv := deployPivots(ds.Dist, indexed, humanPivots)
	key, err := secret.Generate(pv, secret.ModeCTRHMAC)
	if err != nil {
		return nil, err
	}
	srv, client, err := wireDeploy(key)
	if err != nil {
		return nil, err
	}
	w := &wireWorld{srv: srv, client: client, key: key, indexed: indexed, dim: ds.Dim}
	if err := load(nil, indexed, loadChunk, client.InsertStream); err != nil {
		w.Close()
		return nil, err
	}
	w.pool = &pool{dist: ds.Dist, queries: queries, k: mixK}
	if err := warm(ctx, client, w.pool, mixQuery(w.pool, mixCandSize)); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// runWireMixed is the paper's single-query path: one closed-loop client
// of an encrypted single server over loopback TCP with memory storage.
func runWireMixed(ctx context.Context, e *env, rep *report) error {
	w, err := setup(e, rep, func() (*wireWorld, error) { return buildWire(ctx, e) })
	if err != nil {
		return err
	}
	defer w.Close()
	w.pool = groundTruth(w.pool.dist, w.indexed, w.pool.queries, w.pool.k)
	eng := core.EngineStatsOf(w.srv.Index())
	rep.set("stored_bytes_per_user_byte", float64(eng.Ingest.Bytes)/float64(len(w.indexed)*w.dim*4), len(w.indexed))
	rep.set("mindex.bytes_per_entry", float64(eng.Ingest.Bytes)/float64(eng.Ingest.Entries), int(eng.Ingest.Entries))

	ops, passLen := w.pool.windowOps(e.seed, 100, 40, mixBatch, map[opKind]int{
		opApprox: 5, opKNN: 1, opRange: 1, opFirstCell: 1, opBatch: 1,
	})
	r := &runner{s: w.client, p: w.pool, query: mixQuery(w.pool, mixCandSize), rep: rep}
	pr := &prober{key: w.client.Key(), dist: w.pool.dist, cands: approxCands(w.srv.Index().ApproxCandidates)}
	measure(ctx, e, r, ops, passLen, func(o op) {
		if o.kind == opApprox {
			pr.probe(w.pool.queries[o.qis[0]].Vec, mixCandSize)
		}
	})
	approx, knn, rng := r.checkPass(ctx)
	if e.tr != nil {
		r.layerCosts(approx, knn, rng)
		pr.report(rep)
		rep.set("metric.refine_dists", approx.per(func(c stats.Costs) float64 { return float64(c.DistComps) })-humanPivots, approx.n)
	}
	return measureIngest(rep, e.window()/ingestShare, w.indexed, func() (inserter, func(), error) {
		srv, client, err := wireDeploy(w.key)
		if err != nil {
			return nil, nil, err
		}
		return client.InsertStream, func() { client.Close(); srv.Close() }, nil
	})
}
