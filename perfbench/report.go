package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in the order of BENCHMARK.json. Its timings are CPU time of
// the process (see cpuTime); the wall-clock figures are printed beside
// them but carry no bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"queries_per_cpu_s", "1/s"},
	{"approx_cpu_p50_ms", "ms"},
	{"knn_cpu_p50_ms", "ms"},
	{"range_cpu_p50_ms", "ms"},
	{"batch_cpu_p50_ms", "ms"},
	{"approx_recall_pct", "%"},
	{"ingest_objs_per_cpu_s", "1/s"},
	{"heap_mb", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// printed lists the figures an end-to-end run prints after its metrics,
// in this order, without reporting them as metrics: on a shared host the
// CPU time tails and the wall-clock figures swing too far between runs to
// carry a bound.
var printed = []struct{ name, unit string }{
	{"approx_cpu_p90_ms", "ms"}, {"knn_cpu_p90_ms", "ms"}, {"range_cpu_p90_ms", "ms"}, {"batch_cpu_p90_ms", "ms"},
	{"setup_wall_s", "s"},
	{"query_qps", "1/s"},
	{"approx_p50_ms", "ms"}, {"approx_p90_ms", "ms"}, {"approx_p99_ms", "ms"},
	{"knn_p50_ms", "ms"}, {"knn_p90_ms", "ms"}, {"knn_p99_ms", "ms"},
	{"range_p50_ms", "ms"}, {"range_p90_ms", "ms"}, {"range_p99_ms", "ms"},
	{"batch_p50_ms", "ms"}, {"batch_p90_ms", "ms"}, {"batch_p99_ms", "ms"},
	{"ingest_objs_per_s", "1/s"},
	{"ingest_p50_ms", "ms"}, {"ingest_p90_ms", "ms"}, {"ingest_p99_ms", "ms"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1, in the order of BENCHMARK.json. A workload that does not
// exercise a layer reports 0 for its metrics (shown as n/a in the table).
var perLayer = []struct{ name, unit string }{
	{"core.client_ms", "ms"},
	{"core.candidates", "count"},
	{"core.refine_yield", "ratio"},
	{"core.round_trips", "count"},
	{"core.stream_ack_ms", "ms"},
	{"secret.decrypt_ms", "ms"},
	{"secret.decrypt_us_per_cand", "us"},
	{"secret.encrypt_us_per_obj", "us"},
	{"pivot.dists_us_per_obj", "us"},
	{"pivot.query_us", "us"},
	{"metric.refine_dists", "count"},
	{"metric.refine_us", "us"},
	{"wire.comm_ms", "ms"},
	{"wire.bytes_sent", "B"},
	{"wire.bytes_recv", "B"},
	{"wire.decode_ms", "ms"},
	{"server.server_ms", "ms"},
	{"engine.candidates_ms", "ms"},
	{"mindex.cache_hit_ratio", "ratio"},
	{"mindex.cache_misses_per_query", "count"},
	{"mindex.dead_frac", "ratio"},
	{"mindex.bytes_per_entry", "B"},
	{"mindex.builds_per_chunk", "count"},
	{"wal.bytes_per_obj", "B"},
	{"cluster.server_ms", "ms"},
	{"cluster.node_max_ms", "ms"},
	{"cluster.coord_ms", "ms"},
	{"gateway.overhead_ms", "ms"},
	{"gateway.shed_frac", "ratio"},
	{"gateway.reject_frac", "ratio"},
	{"kmeans.candidates", "count"},
	{"kmeans.route_ms", "ms"},
	{"go.alloc_kb_per_query", "kB"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// samples collects one distribution of durations in milliseconds.
type samples struct{ xs []float64 }

func (s *samples) add(d time.Duration) { s.xs = append(s.xs, float64(d)/float64(time.Millisecond)) }

func (s *samples) n() int { return len(s.xs) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks (0 when empty).
func (s *samples) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// timing collects one kind of operation's wall-clock latencies and the
// CPU time the process spent on each.
type timing struct{ wall, cpu samples }

func (t *timing) add(wall, cpu time.Duration) {
	t.wall.add(wall)
	t.cpu.add(cpu)
}

// value is one reported metric with the number of samples behind it.
type value struct {
	v   float64
	n   int
	set bool
}

// report is the outcome of one benchmark run.
type report struct {
	workload  string
	trace     bool
	values    map[string]value
	attempted int64 // operations attempted (queries, ingest chunks, deletes)
	failed    int64 // errors, refusals, deadline hits and wrong answers
	wrong     int64 // wrong exact answers (fail the run)
	problems  []string
}

func newReport(workload string, trace bool) *report {
	return &report{workload: workload, trace: trace, values: map[string]value{}}
}

func (r *report) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = value{v: v, n: n, set: true}
}

// timing records kind's CPU median as the metric <kind>_cpu_p50_ms, and
// its CPU p90 and wall-clock quantiles as the printed <kind>_cpu_p90_ms,
// <kind>_p50_ms, <kind>_p90_ms and <kind>_p99_ms.
func (r *report) timing(kind string, t *timing) {
	r.set(kind+"_cpu_p50_ms", t.cpu.quantile(0.5), t.cpu.n())
	r.set(kind+"_cpu_p90_ms", t.cpu.quantile(0.9), t.cpu.n())
	r.wall(kind, &t.wall)
}

// wall records the printed wall-clock quantiles of s.
func (r *report) wall(kind string, s *samples) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"_p50_ms", 0.5}, {"_p90_ms", 0.9}, {"_p99_ms", 0.99}} {
		r.set(kind+q.name, s.quantile(q.q), s.n())
	}
}

// fail records a failed operation; wrong marks a wrong exact answer.
func (r *report) fail(wrong bool, format string, args ...any) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// correct reports whether the run may be trusted: no wrong exact answer
// and every metric of its kind measured.
func (r *report) correct() bool {
	return r.wrong == 0 && len(r.missing()) == 0 && r.attempted > 0
}

func (r *report) names() []struct{ name, unit string } {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// missing lists end-to-end metrics the run failed to measure. Per-layer
// metrics of layers a workload does not exercise are legitimately absent.
func (r *report) missing() []string {
	if r.trace {
		return nil
	}
	var out []string
	for _, m := range endToEnd {
		if v := r.values[m.name]; !v.set || v.v <= 0 {
			out = append(out, m.name)
		}
	}
	return out
}

// write prints the human-readable table, then the result as one JSON
// object on the last line.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s (%s run)\n", r.workload, map[bool]string{false: "end-to-end", true: "traced"}[r.trace])
	fmt.Fprintf(w, "  %-30s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	metrics := map[string]map[string]any{}
	for _, m := range r.names() {
		v := r.values[m.name]
		if v.set {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s %8d\n", m.name, v.v, m.unit, v.n)
		} else {
			fmt.Fprintf(w, "  %-30s %14s %-6s %8s\n", m.name, "n/a", m.unit, "-")
		}
		metrics[m.name] = map[string]any{"value": v.v, "unit": m.unit}
	}
	for _, m := range printed {
		if v := r.values[m.name]; v.set && !r.trace {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s %8d\n", m.name, v.v, m.unit, v.n)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-30s %14.6f %-6s %8d\n", "failed_frac", frac, "ratio", r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	if miss := r.missing(); len(miss) > 0 {
		fmt.Fprintf(w, "  not measured: %v\n", miss)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
