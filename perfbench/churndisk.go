package main

import (
	"context"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/dataset"
	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/secret"
	"simcloud/internal/server"
	"simcloud/internal/stats"
	"simcloud/internal/wal"
)

// CoPhIR stand-in parameters of the paper's Table 2, with a bucket cache
// far smaller than the collection's buckets.
const (
	cophirPivots    = 100
	cophirMaxLevel  = 6
	cophirBucket    = 1000
	churnCacheBytes = 4 << 20
	churnK          = 10
	churnCandSize   = 1000
	churnBatch      = 2
	churnChunk      = 32
	// churnStepsPerSecond is the writer's offered rate. The schedule holds
	// --seconds worth of steps, due one after another at this rate, so it
	// depends on the seed and --seconds only and spans the window.
	churnStepsPerSecond = 40
)

// churnStep is one writer operation: insert the fresh objects, or delete
// the listed older ones.
type churnStep struct {
	insert bool
	objs   []metric.Object
}

type churnWorld struct {
	srv      *server.Server
	log      *wal.Log
	client   *core.EncryptedClient
	dir      string
	dist     metric.Distance
	queries  []metric.Object
	steps    []churnStep
	survivor []metric.Object // live set once every step applied
	initial  int
}

func (w *churnWorld) Close() {
	w.client.Close()
	w.srv.Close()
	w.log.Close()
	os.RemoveAll(w.dir)
}

// churnPlan draws the writer's schedule from the seed: 55% of the steps,
// in seeded order, insert the next churnChunk fresh objects, and the rest
// delete churnChunk random live objects. The query pool is every held-out
// object, in seeded order.
func churnPlan(e *env) (ds *dataset.Dataset, initial, queries []metric.Object, steps []churnStep, survivor []metric.Object) {
	nInit, held, nSteps := 2000, 60, int(e.seconds*churnStepsPerSecond)
	if e.tiny {
		nInit, held, nSteps = 400, 6, 8
	}
	ds = dataset.CoPhIR(nInit + held + nSteps*churnChunk)
	cands, rest := dataset.SampleQueries(ds, held, deploySeed, true)
	queries = pickQueries(e.seed, cands, held)
	initial = rest[:nInit]
	fresh := rest[nInit:]
	rng := rand.New(rand.NewPCG(e.seed, 0x636875726e)) // "churn"
	inserts := make([]bool, nSteps)
	for i := range nSteps * 55 / 100 {
		inserts[i] = true
	}
	rng.Shuffle(nSteps, func(i, j int) { inserts[i], inserts[j] = inserts[j], inserts[i] })
	live := append([]metric.Object(nil), initial...)
	for _, ins := range inserts {
		if ins {
			objs := fresh[:churnChunk]
			fresh = fresh[churnChunk:]
			live = append(live, objs...)
			steps = append(steps, churnStep{insert: true, objs: objs})
			continue
		}
		del := make([]metric.Object, 0, churnChunk)
		for j := 0; j < churnChunk && len(live) > 0; j++ {
			i := rng.IntN(len(live))
			del = append(del, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		steps = append(steps, churnStep{objs: del})
	}
	return ds, initial, queries, steps, live
}

// runChurnDisk is the only writing workload: an encrypted server with disk
// buckets behind a small cache and a group-committed WAL. A writer runs
// the seeded insert/delete schedule at a fixed offered rate, and between
// its steps a reader sends approximate queries, alone and in batches,
// until the schedule ends; then pool queries are checked against the
// surviving set.
func runChurnDisk(ctx context.Context, e *env, rep *report) error {
	w, err := setup(e, rep, func() (*churnWorld, error) {
		ds, initial, queries, steps, survivor := churnPlan(e)
		dir, err := e.tempDir("churn-*")
		if err != nil {
			return nil, err
		}
		w := &churnWorld{dir: dir, dist: ds.Dist, queries: queries, steps: steps, survivor: survivor, initial: len(initial)}
		pv := deployPivots(ds.Dist, initial, cophirPivots)
		key, err := secret.Generate(pv, secret.ModeCTRHMAC)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		w.log, _, err = wal.Open(filepath.Join(dir, "wal"), wal.SyncGroup)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		w.srv, err = server.NewEncrypted(mindex.Config{
			NumPivots: cophirPivots, MaxLevel: cophirMaxLevel, BucketCapacity: cophirBucket,
			Storage: mindex.StorageDisk, DiskPath: filepath.Join(dir, "buckets"),
			DiskCacheBytes: churnCacheBytes, Ranking: mindex.RankFootrule,
		})
		if err != nil {
			w.log.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		w.srv.Logf = nop
		w.srv.AttachWAL(w.log)
		if err := w.srv.Start("127.0.0.1:0"); err != nil {
			w.srv.Close()
			w.log.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		w.client, err = core.DialEncrypted(w.srv.Addr(), key, core.Options{
			MaxLevel: cophirMaxLevel, StoreDists: true, Ranking: mindex.RankFootrule,
		})
		if err != nil {
			w.srv.Close()
			w.log.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		if err := load(nil, initial, churnChunk, w.client.InsertStream); err != nil {
			w.Close()
			return nil, err
		}
		for qi := 0; qi < min(10, len(queries)); qi++ {
			q := core.Query{Kind: core.KindApproxKNN, Vec: queries[qi].Vec, K: churnK, CandSize: churnCandSize}
			if _, _, err := w.client.Search(ctx, q); err != nil {
				w.Close()
				return nil, err
			}
		}
		return w, nil
	})
	if err != nil {
		return err
	}
	defer w.Close()

	// The reader draws from the pool before its ground truth exists; only
	// exact queries after the writer finishes are checked.
	readPool := &pool{dist: w.dist, queries: w.queries, k: churnK, truths: make([]truth, len(w.queries))}
	ops, passLen := schedule(e.seed, 20, len(w.queries), churnBatch, map[opKind]int{opApprox: 1, opBatch: 1})
	reader := &runner{s: w.client, p: readPool, query: mixQuery(readPool, churnCandSize), rep: rep}
	pr := &prober{key: w.client.Key(), dist: w.dist, cands: approxCands(w.srv.Index().ApproxCandidates)}
	at := func(int) *runner { return reader }
	var tw *tracedWindow
	if e.tr != nil {
		// A traced run splits the reader's window where the writer reaches
		// the middle of its schedule.
		tw = newTracedWindow(e, reader, passLen, func(o op) {
			if o.kind == opApprox {
				pr.probe(w.queries[o.qis[0]].Vec, churnCandSize)
			}
		})
		at = tw.at
	}

	// The writer and the reader take turns on this goroutine: each writer
	// step runs once it is due, and reader operations fill the time
	// between, so every operation's CPU time is its own.
	before := core.EngineStatsOf(w.srv.Index())
	var writer ingest
	interval := time.Second / churnStepsPerSecond
	start := time.Now()
	for i, next := 0, 0; next < len(w.steps); {
		if time.Since(start) < time.Duration(next)*interval {
			at(i).do(ctx, ops[i%len(ops)])
			i++
			continue
		}
		if tw != nil && next == len(w.steps)/2 {
			tw.half()
		}
		if err := w.step(&writer, w.steps[next], tw); err != nil {
			rep.fail(false, "writer: %v", err)
			return err
		}
		next++
	}
	elapsed := time.Since(start)
	rep.attempted += int64(len(w.steps))
	reads := reader.queries
	if tw == nil {
		reader.report(elapsed)
	} else {
		tw.finish()
		reads = tw.queries()
	}
	writer.report(rep)
	after := core.EngineStatsOf(w.srv.Index())

	// Exact phase: the surviving set's ground truth, then every pool query
	// once as approximate (recall), precise k-NN and range query, timed.
	p := groundTruth(w.dist, w.survivor, w.queries, churnK)
	if after.Engine.Live != len(w.survivor) {
		rep.fail(true, "index holds %d live entries, the schedule leaves %d", after.Engine.Live, len(w.survivor))
	}
	exact := &runner{s: w.client, p: p, query: mixQuery(p, churnCandSize), rep: rep}
	approx, knn, rng := exact.checkPass(ctx)
	rep.timing("knn", &exact.lat[opKNN])
	rep.timing("range", &exact.lat[opRange])

	stored, err := dirBytes(filepath.Join(w.dir, "buckets"))
	if err != nil {
		return err
	}
	stored += w.log.Size()
	rep.set("stored_bytes_per_user_byte", float64(stored)/float64(len(w.survivor)*4*len(w.queries[0].Vec)), len(w.survivor))
	if e.tr != nil {
		reader.layerCosts(approx, knn, rng)
		pr.report(rep)
		rep.set("metric.refine_dists", approx.per(func(c stats.Costs) float64 { return float64(c.DistComps) })-cophirPivots, approx.n)
		hits := after.Cache.Hits - before.Cache.Hits
		misses := after.Cache.Misses - before.Cache.Misses
		if hits+misses > 0 {
			rep.set("mindex.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
		}
		rep.set("mindex.cache_misses_per_query", float64(misses)/float64(reads), int(reads))
		eng := after.Engine
		rep.set("mindex.dead_frac", float64(eng.Dead)/float64(eng.Live+eng.Dead), eng.Live+eng.Dead)
		rep.set("mindex.bytes_per_entry", float64(after.Ingest.Bytes)/float64(after.Ingest.Entries), int(after.Ingest.Entries))
		inserts := 0
		for _, st := range w.steps {
			if st.insert {
				inserts++
			}
		}
		rep.set("mindex.builds_per_chunk", float64(after.Ingest.Builds-before.Ingest.Builds)/float64(inserts), inserts)
		written := w.initial + writer.objects
		rep.set("wal.bytes_per_obj", float64(w.log.Size())/float64(written), written)
	}
	return nil
}

// step runs one writer step, traced in the second half of a traced run.
func (w *churnWorld) step(writer *ingest, st churnStep, tw *tracedWindow) error {
	var tr *tracer
	if tw != nil && tw.second {
		tr = tw.traced.tr
	}
	root := tr.op("op.ingest")
	defer root.end(nil)
	return writer.chunk(len(st.objs), st.insert, func() (c stats.Costs, err error) {
		if st.insert {
			sp := root.child("core.InsertStream")
			c, err = w.client.InsertStream(st.objs)
			sp.endOverlapping(&c)
		} else {
			sp := root.child("core.Delete")
			_, c, err = w.client.Delete(st.objs)
			sp.end(&c)
		}
		return c, err
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
