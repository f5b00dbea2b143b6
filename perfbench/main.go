// Command perfbench is the repository's benchmark. It hosts every server,
// coordinator and gateway of a workload in its own process, drives the
// layers through their exported functions, checks every exact answer
// against brute force, and prints the workload's metrics; the last line of
// standard output is one JSON object.
//
//	bash perfbench/run.sh --workload wire-mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans around every call into a layer and reports the per-layer
// metrics instead (see NOTES.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *env, *report) error{
	"wire-mixed":       runWireMixed,
	"churn-disk":       runChurnDisk,
	"gateway-cluster3": runGatewayCluster3,
	"direct-embed768":  runDirectEmbed768,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs and operation sequence")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for bucket files, WAL and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rep, err := runWorkload(*name, drive, &env{
		seed: *seed, seconds: *seconds, workdir: *workdir,
	}, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh work directory, removed at the
// end; a traced run writes its spans beside it.
func runWorkload(name string, drive func(context.Context, *env, *report) error, e *env, traced bool) (*report, error) {
	base := e.workdir
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.workdir = dir
	if traced {
		e.tr = newTracer()
	}
	rep := newReport(name, traced)
	if err := drive(context.Background(), e, rep); err != nil {
		return nil, err
	}
	if e.tr != nil {
		pct, ops, err := e.tr.reconcile()
		if err != nil {
			rep.fail(true, "%v", err)
		}
		rep.set("trace.unattributed_pct", pct, ops)
		out := filepath.Join(base, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
		if err := e.tr.write(out); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
