// Command e2ebench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed window and prints every metric by
// name and unit, then a final JSON line. It runs from the repository
// root, where it reads the metric names and units from BENCHMARK.json;
// run.py builds it and runs it there:
//
//	python3 e2ebench/run.py --workload serve --seed 1 --seconds 55 --trace 0
//
// Workloads: build (the full-suite database build) and serve (jobs
// submitted to a journaled qosrmd on loopback). -trace 0 prints the end-to-end
// metrics; -trace 1 is a separate run that records spans around each
// layer's calls, prints the per-layer metrics and writes the spans to
// -dir when it ends. steady.py repeats runs and reports their spread.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its run.
var workloads = map[string]func(runConfig, *report) error{"build": runBuild, "serve": runServe}

func main() {
	workload := flag.String("workload", "", "build or serve")
	seed := flag.Int64("seed", 1, "seed of the generated specs")
	seconds := flag.Float64("seconds", 0, "length of the measured window (required)")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	dir := flag.String("dir", ".bench_build/e2ebench", "directory for scratch files and span logs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want -workload build|serve, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fail(err)
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		traced:  *traced == 1,
		dir:     scratch,
		spans:   filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed)),
	}
	fmt.Printf("e2ebench %s seed=%d seconds=%g trace=%d workers=%d\n", *workload, *seed, *seconds, *traced, cfg.workers)
	r := newReport(*workload, os.Stdout, spec)
	err = run(cfg, r)
	os.RemoveAll(scratch)
	if err != nil {
		fail(err)
	}
	defs := spec.EndToEnd
	if cfg.traced {
		defs = spec.PerLayer
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			fail(err)
		}
		r.set("peak_rss_mb", rss, "(VmHWM over the measured window)")
		r.set("ok_pct", r.okPct(), fmt.Sprintf("(%d of %d operations passed)", r.attempted-r.failed, r.attempted))
	}
	if err := r.finish(defs, cfg.traced); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
