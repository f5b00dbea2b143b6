package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"simcloud/internal/stats"
)

// spec reads the metric names and units of BENCHMARK.json.
func spec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// predicted reads the prediction table of NOTES.md: for each workload, the
// per-layer metrics whose row lists it.
func predicted(t *testing.T) map[string][]string {
	t.Helper()
	buf, err := os.ReadFile("NOTES.md")
	if err != nil {
		t.Fatal(err)
	}
	networked := []string{"wire-mixed", "churn-disk", "gateway-cluster3"}
	out := map[string][]string{}
	rows := 0
	for _, line := range strings.Split(string(buf), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 || !strings.Contains(cells[1], "`") {
			continue
		}
		on := strings.TrimSpace(cells[4])
		var ws []string
		switch {
		case on == "all":
			ws = append(networked, "direct-embed768")
		case on == "all networked":
			ws = networked
		default:
			for w := range workloads {
				if strings.Contains(on, w) {
					ws = append(ws, w)
				}
			}
		}
		for _, name := range strings.Split(cells[1], ",") {
			name = strings.Trim(strings.TrimSpace(name), "`")
			for _, w := range ws {
				out[w] = append(out[w], name)
			}
			rows++
		}
	}
	if rows == 0 {
		t.Fatal("NOTES.md has no prediction table")
	}
	return out
}

// TestWorkloadsTiny runs every workload at its tiny size, untraced and
// traced, so the benchmark cannot rot: each must check its answers, print
// the result object on its last line with exactly the metrics and units
// of BENCHMARK.json, measure every end-to-end metric, and, traced, measure
// every layer metric that NOTES.md predicts for it.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers := spec(t)
	pred := predicted(t)
	for name, drive := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(map[bool]string{false: name, true: name + "/traced"}[traced], func(t *testing.T) {
				rep, err := runWorkload(name, drive, &env{seed: 7, seconds: 1, tiny: true, workdir: t.TempDir()}, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.write(&out); err != nil {
					t.Fatal(err)
				}
				if !rep.correct() {
					t.Fatalf("run not correct:\n%s", out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := e2e
				if traced {
					want = layers
				}
				for m, unit := range want {
					if got, ok := res.Metrics[m]; !ok || got.Unit != unit {
						t.Errorf("metric %s missing or with unit %q, BENCHMARK.json has %q", m, got.Unit, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json has %d", len(res.Metrics), len(want))
				}
				if traced {
					for _, m := range pred[name] {
						if !rep.values[m].set {
							t.Errorf("%s not measured, NOTES.md predicts it on %s", m, name)
						}
					}
				}
			})
		}
	}
}

// TestTraceReconcile checks the reconciliation of a traced operation: the
// time its Costs shares leave uncovered is unattributed, and Costs that
// claim more time than the call took fail the run.
func TestTraceReconcile(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Req: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Req: 1, Name: "core.Search", Start: 10, End: 90},
		{ID: 2, Parent: 1, Req: 1, Name: "wire.comm", Start: 10, End: 40, Share: true},
		{ID: 3, Parent: 1, Req: 1, Name: "server", Start: 40, End: 60, Share: true},
	}
	pct, ops, err := tr.reconcile()
	if err != nil || ops != 1 {
		t.Fatalf("reconcile: %v, %d ops", err, ops)
	}
	if pct != 50 {
		t.Fatalf("unattributed %v%%, want 50%%", pct)
	}

	// A call whose reported server time sums its parallel fan-out can
	// claim more than its wall time.
	tr = newTracer()
	root := tr.op("op.approx")
	sp := root.child("core.Search")
	sp.end(&stats.Costs{CommTime: time.Millisecond, ServerTime: time.Hour})
	root.end(nil)
	if _, _, err := tr.reconcile(); err == nil {
		t.Fatal("reconcile accepted Costs longer than the call")
	}

	// Overlapping Costs are attached without shares and leave their
	// operation out of the attribution.
	tr = newTracer()
	root = tr.op("op.ingest")
	sp = root.child("core.InsertStream")
	sp.endOverlapping(&stats.Costs{CommTime: time.Hour, DistCompTime: time.Hour})
	root.end(nil)
	if _, ops, err := tr.reconcile(); err != nil || ops != 0 {
		t.Fatalf("overlapping costs: %v, %d ops", err, ops)
	}
}

// TestSameSeedSameCounts runs a workload twice on one seed: the counts
// that depend on the seed alone must repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	var got []map[string]value
	for i := 0; i < 2; i++ {
		rep, err := runWorkload("wire-mixed", runWireMixed, &env{seed: 3, seconds: 1, tiny: true, workdir: t.TempDir()}, true)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep.values)
	}
	for _, name := range []string{"core.candidates", "mindex.bytes_per_entry", "core.round_trips", "wire.bytes_recv"} {
		if got[0][name] != got[1][name] {
			t.Errorf("%s: %v then %v", name, got[0][name], got[1][name])
		}
	}
}
