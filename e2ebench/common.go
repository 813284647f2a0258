package main

import (
	"bytes"
	"fmt"
	"time"

	"qosrm/internal/bench"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/scenario"
	"qosrm/internal/workload"
)

// Database shape of every workload: the full suite at the trace length
// qosrmd and dbgen are exercised with, short enough that one build is
// about half a second on two cores.
const (
	traceLen = 8192
	warmup   = 2048
)

// setupRepeats is how many times each run repeats its set-up; setup_s
// is their median.
const setupRepeats = 5

// horizonNs is the arrival horizon of every generated churn spec.
const horizonNs = 2e9

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	window  time.Duration
	workers int
	traced  bool
	dir     string // scratch directory, removed when the run ends
	spans   string // where the traced run writes its spans
}

func suiteOptions(workers int) db.Options {
	return db.Options{TraceLen: traceLen, Warmup: warmup, Workers: workers}
}

func suitePhases() int {
	n := 0
	for _, b := range bench.Suite() {
		n += len(b.Phases)
	}
	return n
}

// snapshot serialises d in the snapshot format: the byte-level identity
// the build checks compare.
func snapshot(d *db.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := dbstore.Write(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// churnSpecs generates n RM3/Model3 churn specs from seed: scenario
// categories S1–S4 crossed with staggered, Poisson and diurnal arrivals,
// round-robin, each from its own generator seed.
func churnSpecs(prefix string, seed int64, n, cores, depth int) ([]scenario.Spec, error) {
	procs := []workload.ArrivalProcess{workload.ArrivalStaggered, workload.ArrivalPoisson, workload.ArrivalDiurnal}
	specs := make([]scenario.Spec, n)
	for i := range specs {
		cat := workload.Scenario(int(workload.Scenario1) + i%4)
		proc := procs[i/4%len(procs)]
		churn, err := workload.GenerateChurnOpts(cat, cores, depth, seed<<16+int64(i), workload.ChurnOptions{Process: proc})
		if err != nil {
			return nil, err
		}
		specs[i] = scenario.FromChurn(fmt.Sprintf("%s-%s-%s-%d", prefix, cat, proc, i), churn, horizonNs)
		specs[i].RM, specs[i].Model = "RM3", "Model3"
	}
	return specs, nil
}

// qualityMetrics reports saving_rm3_pct and qos_violation_pct over a fixed
// set of reports: the mean saving over the idle twin, and the share of
// all intervals that exceeded their job's α-relaxed target.
func qualityMetrics(r *report, reps []*scenario.Report) {
	var saving float64
	var over, intervals int64
	for _, rep := range reps {
		saving += rep.Saving
		for _, j := range rep.Jobs {
			over += j.BudgetViolations
			intervals += j.Intervals
		}
	}
	r.set("saving_rm3_pct", 100*saving/float64(len(reps)), fmt.Sprintf("(mean over %d check specs)", len(reps)))
	r.set("qos_violation_pct", 100*float64(over)/float64(intervals), fmt.Sprintf("(%d of %d intervals)", over, intervals))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
