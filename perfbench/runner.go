package main

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"simcloud/internal/core"
	"simcloud/internal/stats"
)

// env carries one run's arguments to a workload.
type env struct {
	seed    uint64
	seconds float64
	tiny    bool // small inputs and short windows, for the self-test
	workdir string
	tr      *tracer // nil on end-to-end runs
}

// window returns the measured window: the --seconds of a full run, a
// fraction of a second in tiny mode.
func (e *env) window() time.Duration {
	if e.tiny {
		return 300 * time.Millisecond
	}
	return time.Duration(e.seconds * float64(time.Second))
}

// setupReps is how many times a run builds its world to report the median
// set-up time; traced and tiny runs build it once.
func (e *env) setupReps() int {
	if e.tr != nil || e.tiny {
		return 1
	}
	return 3
}

// tempDir makes a scratch directory under the run's work directory.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workdir, pattern)
}

// closer releases a built world.
type closer interface{ Close() }

// setup builds a workload's world e.setupReps() times and keeps the last
// one. It reports setup_s as the median CPU time of a build, with the
// median wall time beside it, and heap_mb after the first build, while no
// earlier world can linger.
func setup[W closer](e *env, rep *report, build func() (W, error)) (W, error) {
	var t timing
	var w W
	for i := 0; i < e.setupReps(); i++ {
		if i > 0 {
			w.Close()
		}
		// Each build starts from a collected heap, so collecting the
		// last one's garbage is not charged to it.
		runtime.GC()
		start, cpu0 := time.Now(), cpuTime()
		var err error
		w, err = build()
		if err != nil {
			var zero W
			return zero, err
		}
		t.add(time.Since(start), cpuTime()-cpu0)
		if i == 0 {
			recordHeap(rep)
		}
	}
	rep.set("setup_s", t.cpu.quantile(0.5)/1000, t.cpu.n())
	rep.set("setup_wall_s", t.wall.quantile(0.5)/1000, t.wall.n())
	return w, nil
}

// cpuTime returns the CPU time the process has used, summed over its
// threads. Time the host takes from the machine (steal) is not counted, so
// a CPU figure moves much less between runs on a shared host than a
// wall-clock one.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// recordHeap reports the live heap after a GC, in MB.
func recordHeap(rep *report) {
	runtime.GC() // a second cycle frees what the first left in sync.Pool victim caches
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("heap_mb", float64(ms.HeapAlloc)/(1<<20), 1)
}

// memWindow measures allocation and GC pause over a measured window.
type memWindow struct {
	start time.Time
	ms    runtime.MemStats
}

func startMem() memWindow {
	var w memWindow
	runtime.ReadMemStats(&w.ms)
	w.start = time.Now()
	return w
}

// finish reports go.alloc_kb_per_query and go.gc_pause_ms_per_s.
func (w memWindow) finish(rep *report, queries int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	secs := time.Since(w.start).Seconds()
	if queries > 0 {
		rep.set("go.alloc_kb_per_query", float64(ms.TotalAlloc-w.ms.TotalAlloc)/1024/float64(queries), int(queries))
	}
	rep.set("go.gc_pause_ms_per_s", float64(ms.PauseTotalNs-w.ms.PauseTotalNs)/1e6/secs, int(ms.NumGC-w.ms.NumGC))
}

// costSum accumulates the Costs of one query kind.
type costSum struct {
	c stats.Costs
	n int // queries
}

func (s *costSum) add(c stats.Costs, queries int) {
	s.c.Accumulate(c)
	s.n += queries
}

// per returns f of the summed costs divided by the query count.
func (s *costSum) per(f func(stats.Costs) float64) float64 {
	if s.n == 0 {
		return 0
	}
	return f(s.c) / float64(s.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opTimeout is each operation's deadline; an operation that hits it
// counts as failed.
const opTimeout = 10 * time.Second

// runner drives one core.Searcher with scheduled operations, timing each,
// checking exact answers against the pool's ground truth, and tracing
// the call when a tracer is set.
type runner struct {
	s     core.Searcher
	p     *pool
	query func(kind opKind, qi int) core.Query
	rep   *report
	tr    *tracer
	lat   [opBatch + 1]timing
	costs [opBatch + 1]costSum
	// queries counts completed queries (a batch counts its members), and
	// cpu the CPU time of the operations that completed them.
	queries int64
	cpu     time.Duration
	// probe, when set, runs layer probes for the operation after it
	// completed, outside its timing.
	probe func(o op)
	// last holds the costs of the latest completed operation.
	last stats.Costs
}

// do runs one operation, timed from its start.
func (r *runner) do(ctx context.Context, o op) { r.doAt(ctx, o, time.Time{}, nil) }

// doAt runs one operation. A non-zero due time is when an open loop
// scheduled it, and its latency is timed from then; its CPU time is
// counted from the call. mu, when set, guards the runner's bookkeeping
// against other goroutines sharing it.
func (r *runner) doAt(ctx context.Context, o op, due time.Time, mu *sync.Mutex) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	root := r.tr.op("op." + o.kind.String())
	var (
		res   [][]core.Result
		c     stats.Costs
		err   error
		qs    = make([]core.Query, len(o.qis))
		start = time.Now()
		cpu0  = cpuTime()
	)
	if due.IsZero() {
		due = start
	}
	if o.kind == opBatch {
		for i, qi := range o.qis {
			qs[i] = r.query(opApprox, qi)
		}
		sp := root.child("core.SearchBatch")
		res, c, err = r.s.SearchBatch(ctx, qs)
		sp.end(&c)
		if err == nil && len(res) != len(qs) {
			err = errors.New("batch answered a different number of queries")
		}
	} else {
		qs[0] = r.query(o.kind, o.qis[0])
		sp := root.child("core.Search")
		var one []core.Result
		one, c, err = r.s.Search(ctx, qs[0])
		sp.end(&c)
		res = [][]core.Result{one}
	}
	elapsed, cpu := time.Since(due), cpuTime()-cpu0
	root.end(nil)
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	r.rep.attempted++
	if err == nil && o.kind != opBatch {
		qi := o.qis[0]
		switch o.kind {
		case opKNN:
			if cerr := r.p.checkKNN(qi, res[0]); cerr != nil {
				r.rep.fail(true, "%v", cerr)
				return
			}
		case opRange:
			if cerr := r.p.checkRange(qi, res[0]); cerr != nil {
				r.rep.fail(true, "%v", cerr)
				return
			}
		default:
			if len(res[0]) == 0 || len(res[0]) > qs[0].K {
				err = errors.New("approximate answer of wrong size")
			}
		}
	}
	if err != nil {
		r.rep.fail(false, "%v query: %v", o.kind, err)
		return
	}
	r.lat[o.kind].add(elapsed, cpu)
	r.costs[o.kind].add(c, len(qs))
	r.queries += int64(len(qs))
	r.cpu += cpu
	r.last = c
	if r.probe != nil {
		r.probe(o)
	}
}

// loop runs the schedule in a closed loop, cycling through it, until the
// window ends and then to the end of the current pass, so every run
// measures whole passes; at(i) is the runner of the i-th operation. It
// returns the elapsed time.
func loop(ctx context.Context, at func(i int) *runner, ops []op, passLen int, window time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i%passLen != 0 || time.Now().Before(deadline); i++ {
		at(i).do(ctx, ops[i%len(ops)])
	}
	return time.Since(start)
}

// measure runs the closed-loop window; a traced run splits it into the
// halves of a tracedWindow.
func measure(ctx context.Context, e *env, r *runner, ops []op, passLen int, probe func(op)) {
	if e.tr == nil {
		r.report(loop(ctx, func(int) *runner { return r }, ops, passLen, e.window()))
		return
	}
	tw := newTracedWindow(e, r, passLen, probe)
	loop(ctx, tw.at, ops, passLen, e.window()/2)
	tw.half()
	loop(ctx, tw.at, ops, passLen, e.window()/2)
	tw.finish()
}

// tracedWindow is the measured window of a traced run, in two halves.
// The first runs untraced and gives the allocation and GC figures. The
// second alternates, over the same state of the index, traced operations
// (with layer probes after each) and untraced ones; their approximate
// medians give trace.overhead_pct. The traced runner is the one the
// workload passed in, so its costs are those of traced operations.
type tracedWindow struct {
	rep                     *report
	mw                      memWindow
	first, untraced, traced *runner
	passLen                 int
	second                  bool
}

func newTracedWindow(e *env, r *runner, passLen int, probe func(op)) *tracedWindow {
	plain := func() *runner { return &runner{s: r.s, p: r.p, query: r.query, rep: r.rep} }
	tw := &tracedWindow{rep: r.rep, first: plain(), untraced: plain(), traced: r, passLen: passLen}
	r.tr, r.probe = e.tr, probe
	tw.mw = startMem()
	return tw
}

// at returns the runner of the i-th operation of the schedule. In the
// second half, operations alternate and the alternation flips with every
// pass, so each operation of a pass is traced as often as not.
func (tw *tracedWindow) at(i int) *runner {
	switch {
	case !tw.second:
		return tw.first
	case (i+i/tw.passLen)%2 == 0:
		return tw.traced
	default:
		return tw.untraced
	}
}

// half ends the first half and reports its allocation and GC figures.
func (tw *tracedWindow) half() {
	tw.mw.finish(tw.rep, tw.first.queries)
	tw.second = true
}

// finish reports trace.overhead_pct.
func (tw *tracedWindow) finish() {
	untraced := tw.untraced.lat[opApprox].cpu.quantile(0.5)
	if untraced > 0 {
		traced := &tw.traced.lat[opApprox].cpu
		tw.rep.set("trace.overhead_pct", 100*(traced.quantile(0.5)-untraced)/untraced, traced.n())
	}
}

// queries returns the queries completed over the whole window.
func (tw *tracedWindow) queries() int64 {
	return tw.first.queries + tw.untraced.queries + tw.traced.queries
}

// checkQueries bounds the exact kinds of the check pass to the first pool
// queries.
const checkQueries = 100

// checkPass runs every pool query once as an approximate query, whose
// answers give approx_recall_pct, and the first checkQueries also as
// precise k-NN and range queries, which must equal the ground truth. Each
// call is timed into the runner's latencies, and every count the pass
// reports depends on the seed alone. It returns the per-kind costs.
func (r *runner) checkPass(ctx context.Context) (approx, knn, rng costSum) {
	var recall float64
	for qi := range r.p.queries {
		for _, kind := range []opKind{opApprox, opKNN, opRange} {
			if kind != opApprox && qi >= checkQueries {
				break
			}
			r.rep.attempted++
			opCtx, cancel := context.WithTimeout(ctx, opTimeout)
			start, cpu0 := time.Now(), cpuTime()
			res, c, err := r.s.Search(opCtx, r.query(kind, qi))
			r.lat[kind].add(time.Since(start), cpuTime()-cpu0)
			cancel()
			if err != nil {
				r.rep.fail(false, "check %v query %d: %v", kind, qi, err)
				continue
			}
			switch kind {
			case opApprox:
				recall += r.p.recall(qi, res)
				approx.add(c, 1)
			case opKNN:
				if err := r.p.checkKNN(qi, res); err != nil {
					r.rep.fail(true, "check: %v", err)
				}
				knn.add(c, 1)
			case opRange:
				if err := r.p.checkRange(qi, res); err != nil {
					r.rep.fail(true, "check: %v", err)
				}
				rng.add(c, 1)
			}
		}
	}
	r.rep.set("approx_recall_pct", recall/float64(len(r.p.queries)), len(r.p.queries))
	return approx, knn, rng
}

// report records the window's CPU and latency figures and throughput.
func (r *runner) report(elapsed time.Duration) {
	r.rep.timing("approx", &r.lat[opApprox])
	r.rep.timing("knn", &r.lat[opKNN])
	r.rep.timing("range", &r.lat[opRange])
	r.rep.timing("batch", &r.lat[opBatch])
	r.rep.set("queries_per_cpu_s", float64(r.queries)/r.cpu.Seconds(), int(r.queries))
	r.rep.set("query_qps", float64(r.queries)/elapsed.Seconds(), int(r.queries))
}

// layerCosts reports the Costs-derived per-layer metrics of a traced
// window (approximate queries) and check pass.
func (r *runner) layerCosts(approx, knn, rng costSum) {
	win := &r.costs[opApprox]
	r.rep.set("core.client_ms", win.per(func(c stats.Costs) float64 { return ms(c.ClientTime) }), win.n)
	r.rep.set("secret.decrypt_ms", win.per(func(c stats.Costs) float64 { return ms(c.DecryptTime) }), win.n)
	r.rep.set("server.server_ms", win.per(func(c stats.Costs) float64 { return ms(c.ServerTime) }), win.n)
	r.rep.set("wire.comm_ms", win.per(func(c stats.Costs) float64 { return ms(c.CommTime) }), win.n)
	r.rep.set("core.candidates", approx.per(func(c stats.Costs) float64 { return float64(c.Candidates) }), approx.n)
	r.rep.set("core.refine_yield", float64(r.p.k)/approx.per(func(c stats.Costs) float64 { return float64(c.Candidates) }), approx.n)
	r.rep.set("core.round_trips", knn.per(func(c stats.Costs) float64 { return float64(c.RoundTrips) }), knn.n)
	var all costSum
	all.add(approx.c, approx.n)
	all.add(knn.c, knn.n)
	all.add(rng.c, rng.n)
	r.rep.set("wire.bytes_sent", all.per(func(c stats.Costs) float64 { return float64(c.BytesSent) }), all.n)
	r.rep.set("wire.bytes_recv", all.per(func(c stats.Costs) float64 { return float64(c.BytesReceived) }), all.n)
}
