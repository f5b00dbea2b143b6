package main

import (
	"context"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/kmeans"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
)

const (
	embedCentroids = 32
	embedTrainCap  = 2000
	embedK         = 30
	embedRecall    = 0.9
	embedBatch     = 4
	embedCalBins   = 6
)

type embedWorld struct {
	km      *core.KMeansDirect
	key     *secret.Key
	pool    *pool
	indexed []metric.Object
	dim     int
}

func (w *embedWorld) Close() { w.km.Close() }

func embedQuery(p *pool) func(opKind, int) core.Query {
	return func(kind opKind, qi int) core.Query {
		v := p.queries[qi].Vec
		switch kind {
		case opKNN:
			return core.Query{Kind: core.KindKNN, Vec: v, K: p.k, TargetRecall: embedRecall}
		case opRange:
			return core.Query{Kind: core.KindRange, Vec: v, Radius: p.truths[qi].radius}
		default:
			return core.Query{Kind: core.KindApproxKNN, Vec: v, K: p.k, TargetRecall: embedRecall}
		}
	}
}

// embedDeploy makes an empty in-process KMeansDirect.
func embedDeploy(key *secret.Key) (*core.KMeansDirect, error) {
	return core.NewKMeansDirect(kmeans.Config{NumCentroids: embedCentroids, Storage: mindex.StorageMemory}, key, core.Options{})
}

// buildEmbed trains the k-means model on the indexed embeddings, loads
// them into an in-process KMeansDirect, and calibrates its candidate-size
// predictor on held-out query vectors.
func buildEmbed(ctx context.Context, e *env) (*embedWorld, error) {
	n, held, ncal := 4000, 140, 40
	if e.tiny {
		n, held, ncal = 600, 32, 20
	}
	ds := dataset.Embed768(n)
	cands, indexed := dataset.SampleQueries(ds, held, deploySeed, true)
	cal, cands := cands[:ncal], cands[ncal:]
	queries := pickQueries(e.seed, cands, len(cands))
	model, err := kmeans.Train(kmeans.TrainConfig{
		K: embedCentroids, Seed: deploySeed, SampleCap: embedTrainCap, Dist: ds.Dist,
	}, indexed)
	if err != nil {
		return nil, err
	}
	key, err := secret.Generate(model.PivotSet(), secret.ModeCTRHMAC)
	if err != nil {
		return nil, err
	}
	km, err := embedDeploy(key)
	if err != nil {
		return nil, err
	}
	w := &embedWorld{km: km, key: key, indexed: indexed, dim: ds.Dim}
	if err := load(nil, indexed, loadChunk, km.Insert); err != nil {
		w.Close()
		return nil, err
	}
	vecs := make([]metric.Vector, len(cal))
	for i, o := range cal {
		vecs[i] = o.Vec
	}
	pred, err := km.Calibrate(ctx, vecs, embedK, []float64{embedRecall}, embedCalBins)
	if err != nil {
		w.Close()
		return nil, err
	}
	km.SetPredictor(pred)
	w.pool = &pool{dist: ds.Dist, queries: queries, k: embedK}
	if err := warm(ctx, km, w.pool, embedQuery(w.pool)); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// runDirectEmbed768 is the only workload through the k-means family and
// its learned candidate-size predictor: 768-d cosine embeddings searched
// in-process, with no wire.
func runDirectEmbed768(ctx context.Context, e *env, rep *report) error {
	w, err := setup(e, rep, func() (*embedWorld, error) { return buildEmbed(ctx, e) })
	if err != nil {
		return err
	}
	defer w.Close()
	w.pool = groundTruth(w.pool.dist, w.indexed, w.pool.queries, w.pool.k)
	st := core.CollectStats(w.km)
	rep.set("stored_bytes_per_user_byte", float64(st.Ingest.Bytes)/float64(len(w.indexed)*w.dim*4), len(w.indexed))
	rep.set("mindex.bytes_per_entry", float64(st.Ingest.Bytes)/float64(st.Ingest.Entries), int(st.Ingest.Entries))

	ops, passLen := w.pool.windowOps(e.seed, 100, 40, embedBatch, map[opKind]int{
		opApprox: 2, opKNN: 1, opRange: 1, opBatch: 1,
	})
	r := &runner{s: w.km, p: w.pool, query: embedQuery(w.pool), rep: rep}
	idx := w.km.Index()
	pr := &prober{key: w.km.Key(), dist: w.pool.dist, cands: idx.ApproxCandidates}
	measure(ctx, e, r, ops, passLen, func(o op) {
		if o.kind == opApprox {
			pr.probe(w.pool.queries[o.qis[0]].Vec, int(r.last.Candidates))
		}
	})
	approx, knn, rng := r.checkPass(ctx)
	if e.tr != nil {
		r.layerCosts(approx, knn, rng)
		pr.report(rep)
		perQ := func(f func(stats.Costs) float64) float64 { return approx.per(f) }
		rep.set("kmeans.candidates", perQ(func(c stats.Costs) float64 { return float64(c.Candidates) }), approx.n)
		rep.set("metric.refine_dists", perQ(func(c stats.Costs) float64 { return float64(c.DistComps) })-embedCentroids, approx.n)
		win := &r.costs[opApprox]
		rep.set("kmeans.route_ms", win.per(func(c stats.Costs) float64 { return ms(c.ServerTime) }), win.n)
	}
	return measureIngest(rep, e.window()/ingestShare, w.indexed, func() (inserter, func(), error) {
		km, err := embedDeploy(w.key)
		if err != nil {
			return nil, nil, err
		}
		return km.Insert, func() { km.Close() }, nil
	})
}
