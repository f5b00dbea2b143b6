package main

import (
	"runtime"
	"time"

	"simcloud/internal/metric"
	"simcloud/internal/mindex"
	"simcloud/internal/pivot"
	"simcloud/internal/secret"
	"simcloud/internal/stats"
	"simcloud/internal/wire"
)

// prober times the layers of one approximate query from outside the
// program, after the measured call: the client's pivot distances, the
// hosted index's candidate collection, the wire decode of those
// candidates, their decryption and their refinement.
type prober struct {
	key  *secret.Key
	dist metric.Distance
	// cands collects the candidates the index would return for the query.
	cands func(qDists []float64, candSize int) ([]mindex.Entry, error)

	pivotQ, engine, decode, refine samples
	decryptPerCand                 samples
}

// approxCands adapts a hosted M-Index engine to prober.cands under the
// footrule ranking.
func approxCands(candidates func(mindex.ApproxQuery, int) ([]mindex.Entry, error)) func([]float64, int) ([]mindex.Entry, error) {
	return func(qDists []float64, candSize int) ([]mindex.Entry, error) {
		return candidates(mindex.ApproxQuery{Ranks: pivot.Ranks(pivot.Permutation(qDists))}, candSize)
	}
}

// probe measures one query; errors end the probe silently, since the
// measured call already answered the same query.
func (p *prober) probe(q metric.Vector, candSize int) {
	start := time.Now()
	qDists := p.key.Pivots().Distances(q)
	pivot.Permutation(qDists)
	p.pivotQ.add(time.Since(start))

	start = time.Now()
	cands, err := p.cands(p.key.TransformDists(qDists), candSize)
	p.engine.add(time.Since(start))
	if err != nil || len(cands) == 0 {
		return
	}

	enc := wire.CandidatesResp{Entries: cands}.Encode()
	start = time.Now()
	_, err = wire.DecodeCandidatesResp(enc)
	p.decode.add(time.Since(start))
	if err != nil {
		return
	}

	objs := make([]metric.Object, 0, len(cands))
	start = time.Now()
	for _, e := range cands {
		o, err := p.key.DecryptObject(e.Payload)
		if err != nil {
			return
		}
		objs = append(objs, o)
	}
	p.decryptPerCand.add(time.Since(start) / time.Duration(len(cands)))

	start = time.Now()
	for _, o := range objs {
		p.dist.Dist(q, o.Vec)
	}
	p.refine.add(time.Since(start))
}

// report records the probe metrics.
func (p *prober) report(rep *report) {
	rep.set("pivot.query_us", p.pivotQ.mean()*1000, p.pivotQ.n())
	rep.set("engine.candidates_ms", p.engine.mean(), p.engine.n())
	rep.set("wire.decode_ms", p.decode.mean(), p.decode.n())
	rep.set("secret.decrypt_us_per_cand", p.decryptPerCand.mean()*1000, p.decryptPerCand.n())
	rep.set("metric.refine_us", p.refine.mean()*1000, p.refine.n())
}

// ingest records a writer's chunk calls: each chunk's latency up to its
// acknowledgment and the CPU time the process spent on it, and the client
// costs of the objects it carried.
type ingest struct {
	chunks    samples
	busy, cpu time.Duration
	objects   int // inserted and deleted
	// inserted counts the inserted objects costs covers.
	inserted int
	costs    stats.Costs
}

// chunk times one insert (or, with insert false, delete) call of n
// objects; only inserts add to the per-object insert costs.
func (in *ingest) chunk(n int, insert bool, call func() (stats.Costs, error)) error {
	start, cpu0 := time.Now(), cpuTime()
	c, err := call()
	d, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		return err
	}
	in.chunks.add(d)
	in.busy += d
	in.cpu += cpu
	in.objects += n
	if insert {
		in.inserted += n
		in.costs.Accumulate(c)
	}
	return nil
}

// inserter inserts one chunk of objects and returns the call's costs.
type inserter func([]metric.Object) (stats.Costs, error)

// load inserts objs in chunks of size through insert; in, when not nil,
// records the calls.
func load(in *ingest, objs []metric.Object, size int, insert inserter) error {
	if in == nil {
		in = &ingest{}
	}
	for off := 0; off < len(objs); off += size {
		part := objs[off:min(off+size, len(objs))]
		if err := in.chunk(len(part), true, func() (stats.Costs, error) { return insert(part) }); err != nil {
			return err
		}
	}
	return nil
}

// measureIngest is the writer of a workload that has none in its read
// window: after that window it loads objs, loadChunk objects per call,
// into one fresh deployment after another from fresh (whose second result
// releases it) until window has passed, and reports the ingest figures
// over all loads. Building a deployment is not timed.
func measureIngest(rep *report, window time.Duration, objs []metric.Object, fresh func() (inserter, func(), error)) error {
	var in ingest
	start := time.Now()
	for first := true; first || time.Since(start) < window; first = false {
		insert, release, err := fresh()
		if err != nil {
			return err
		}
		runtime.GC() // each load starts from a collected heap
		err = load(&in, objs, loadChunk, insert)
		release()
		if err != nil {
			return err
		}
	}
	in.report(rep)
	return nil
}

// report records ingest_objs_per_cpu_s (objects over the CPU time of the
// chunk calls), the printed ingest_objs_per_s (over their wall time) and
// chunk-latency quantiles, and the per-object client costs of inserting.
func (in *ingest) report(rep *report) {
	rep.set("ingest_objs_per_cpu_s", float64(in.objects)/in.cpu.Seconds(), in.objects)
	rep.set("ingest_objs_per_s", float64(in.objects)/in.busy.Seconds(), in.objects)
	rep.wall("ingest", &in.chunks)
	rep.set("core.stream_ack_ms", in.chunks.mean(), in.chunks.n())
	if in.inserted > 0 {
		per := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(in.inserted) }
		rep.set("secret.encrypt_us_per_obj", per(in.costs.EncryptTime), in.inserted)
		rep.set("pivot.dists_us_per_obj", per(in.costs.DistCompTime), in.inserted)
	}
}
