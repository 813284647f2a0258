package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"qosrm/internal/atd"
	"qosrm/internal/bench"
	"qosrm/internal/config"
	"qosrm/internal/cpu"
	"qosrm/internal/db"
	"qosrm/internal/dbstore"
	"qosrm/internal/scenario"
	"qosrm/internal/trace"
)

// The check set: 8-core, depth-8 churn specs, enough of them that the
// mean saving and the violation share vary by about a percent from seed
// to seed. Every workload runs it on its database for saving_rm3_pct
// and qos_violation_pct.
const (
	checkSpecs = 384
	checkCores = 8
	checkDepth = 8
)

// buildSetup is the cold database build every workload starts from,
// repeated setupRepeats times on fresh workspaces. It returns the last
// build, its workspace, its snapshot bytes, the set-up times (s) and
// the reference kernel runs around them; every repeat must serialise to
// the same bytes.
func buildSetup(cfg runConfig, r *report) (*db.DB, *db.Workspace, []byte, []float64, []time.Duration, error) {
	var (
		d     *db.DB
		ws    *db.Workspace
		ref   []byte
		times []float64
		kern  = []time.Duration{refKernel(cfg.workers)}
	)
	for i := 0; i < setupRepeats; i++ {
		debug.FreeOSMemory()
		ws = &db.Workspace{}
		t0 := time.Now()
		var err error
		d, err = ws.Build(bench.Suite(), suiteOptions(cfg.workers))
		if err != nil {
			return nil, nil, nil, nil, nil, fmt.Errorf("setup build: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		kern = append(kern, refKernel(cfg.workers))
		snap, err := snapshot(d)
		if err != nil {
			return nil, nil, nil, nil, nil, err
		}
		if ref == nil {
			ref = snap
		} else {
			r.check(bytes.Equal(snap, ref), "set-up build %d serialises differently from the first", i)
		}
	}
	return d, ws, ref, times, kern, nil
}

// classifyCheck counts one check per application: the setup database
// must put it in its Table II category.
func classifyCheck(d *db.DB, r *report) {
	for _, b := range bench.Suite() {
		cat, _, err := d.Classify(b)
		r.check(err == nil && cat == b.Category, "%s classified %v (err %v), Table II says %v", b.Name, cat, err, b.Category)
	}
}

// runCheckSet runs the seed's check set once on d, counting each spec
// as an operation, and reports the deterministic quality metrics.
func runCheckSet(d *db.DB, cfg runConfig, r *report) error {
	specs, err := churnSpecs("check", cfg.seed, checkSpecs, checkCores, checkDepth)
	if err != nil {
		return err
	}
	reps, err := scenario.Sweep(d, specs, cfg.workers)
	for i := range specs {
		r.check(reps[i] != nil, "check spec %s: %v", specs[i].Name, err)
	}
	if err != nil {
		return err
	}
	qualityMetrics(r, reps)
	return nil
}

// runBuild is the build workload: the full suite built back to back on
// one db.Workspace at Workers = nproc, each build checked against the
// set-up build's snapshot bytes.
func runBuild(cfg runConfig, r *report) error {
	d, ws, ref, setup, kern, err := buildSetup(cfg, r)
	if err != nil {
		return err
	}
	classifyCheck(d, r)
	if err := runCheckSet(d, cfg, r); err != nil {
		return err
	}
	if cfg.traced {
		return traceBuild(cfg, r, ref)
	}
	r.setSetup(setup, kern, "cold builds")
	d = nil // released before the window's memory is measured
	if err := startPeakRSS(); err != nil {
		return err
	}

	var (
		els []float64 // each build's wall time, ms
		oks []bool
	)
	kern = []time.Duration{refKernel(cfg.workers)}
	for start := time.Now(); time.Since(start) < cfg.window; {
		d, el := checkedBuild(ws, cfg.workers, ref, r)
		kern = append(kern, refKernel(cfg.workers))
		els, oks = append(els, el), append(oks, d != nil)
	}
	var lat, raw []float64
	for i, el := range scaled(els, kern) {
		if oks[i] {
			lat, raw = append(lat, el), append(raw, els[i])
		}
	}
	phases := float64(suitePhases())
	r.set("throughput_per_s", phases/mean(lat)*1e3, fmt.Sprintf("(phases built per second of build time at reference speed: %d builds x %g phases, workers=%d; raw %.2f)",
		len(lat), phases, cfg.workers, phases/mean(raw)*1e3))
	r.setTimings(lat, raw, buildTailTop)
	return nil
}

// buildTailTop is build's top tail rung. A run completes about a
// hundred builds, so p90 would have about ten samples beyond it and
// change rung with the host's speed.
const buildTailTop = 75

// checkedBuild builds the suite on ws with the given worker count and
// checks it against the set-up build's snapshot bytes. It returns the
// database (nil if the build failed) and the build time in ms.
func checkedBuild(ws *db.Workspace, workers int, ref []byte, r *report) (*db.DB, float64) {
	t0 := time.Now()
	d, err := ws.Build(bench.Suite(), suiteOptions(workers))
	el := ms(time.Since(t0))
	if !r.checkErr(err, "build") {
		return nil, el
	}
	snap, err := snapshot(d)
	r.check(err == nil && bytes.Equal(snap, ref), "workers=%d build serialises differently from the set-up build", workers)
	return d, el
}

// Frequency corners db.Build simulates in detail (db's fCorners).
var cornerFreqs = [cpu.NumCorners]float64{
	config.FreqGHz(0), config.FreqGHz(config.BaseFreqIdx), config.FreqGHz(config.NumFreqs - 1),
}

// layerCounts are the work counts of one replica build.
type layerCounts struct {
	llcEvents, accesses, distinct, lanes int
}

// replicaBuild repeats db.Build's per-phase layer calls from outside, at
// one worker, with a span around each (none if l is nil): trace generation, annotation
// (Annotate + Tail + LLCEvents), ATD warm-up, one cpu.RunCorners walk
// per core size (delivery argsort included), and an ATD fork + replay
// of every distinct delivery permutation. db.Build shares replay
// prefixes through its replay tree; the replica replays each distinct
// permutation in full, so the tree's saving shows as a negative db.self_ms.
func replicaBuild(l *spanLog, scratch *cpu.SweepScratch) layerCounts {
	var c layerCounts
	for _, b := range bench.Suite() {
		for p, ph := range b.Phases {
			id := fmt.Sprintf("%s/%d", b.Name, p)
			root := l.begin("db.phase", id, -1)

			s := l.begin("trace.generate", id, root)
			insts := trace.Generate(ph.Params, warmup+traceLen)
			l.end(s)

			s = l.begin("cpu.annotate", id, root)
			full := cpu.Annotate(insts)
			tail := full.Tail(warmup)
			events := tail.LLCEvents()
			l.end(s)
			c.llcEvents += len(events)

			s = l.begin("atd.warm", id, root)
			warm := atd.MustNew(0)
			full.WarmATD(warm, warmup)
			l.end(s)

			seen := make(map[string]bool)
			for ci := config.NumSizes - 1; ci >= 0; ci-- {
				s = l.begin("cpu.runcorners", id, root)
				if tail.L2Misses == 0 {
					// db.Build's no-LLC-traffic path: one plain run per
					// corner, nothing to replay.
					for _, f := range cornerFreqs {
						cpu.Run(tail, cpu.RunConfig{Core: config.Sizes[ci], Ways: config.MinWays, FreqGHz: f})
					}
					l.end(s)
					continue
				}
				_, perms := cpu.RunCorners(tail, config.Sizes[ci], cornerFreqs, scratch)
				l.end(s)

				var fresh [][]int32
				for k := range perms {
					for _, perm := range perms[k] {
						c.lanes++
						if key := string(int32Bytes(perm)); !seen[key] {
							seen[key] = true
							fresh = append(fresh, perm)
						}
					}
				}
				s = l.begin("atd.replay", id, root)
				for _, perm := range fresh {
					a := warm.Fork()
					for _, e := range perm {
						ev := events[e]
						a.Access(ev.Addr, ev.InstIdx, ev.IsLoad)
					}
					c.distinct++
					c.accesses += len(perm)
				}
				l.end(s)
			}
			l.end(root)
		}
	}
	return c
}

func int32Bytes(v []int32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}

// replicaLayers are the span names replicaBuild records per phase.
var replicaLayers = []string{"trace.generate", "cpu.annotate", "atd.warm", "cpu.runcorners", "atd.replay"}

// traceBuild is the build workload's traced run. It cycles, until the
// window closes: an untraced db.Build at one worker and at nproc, a
// snapshot save + load, and the replica with and without spans. Each
// metric is the median over cycles.
func traceBuild(cfg runConfig, r *report, ref []byte) error {
	l := &spanLog{t0: time.Now()}
	var (
		w1, wn, replica, bare, self, save, load []float64
		layers                                  = map[string][]float64{}
		counts                                  layerCounts
		bytesOnDisk                             int64
		scratch                                 cpu.SweepScratch
		ws1, wsn                                db.Workspace
	)
	path := filepath.Join(cfg.dir, "suite.qosdb")
	for start := time.Now(); len(w1) < 3 || time.Since(start) < cfg.window; {
		d, el := checkedBuild(&ws1, 1, ref, r)
		w1 = append(w1, el)
		_, el = checkedBuild(&wsn, cfg.workers, ref, r)
		wn = append(wn, el)
		if d != nil {
			t0 := time.Now()
			err := dbstore.Save(path, d)
			save = append(save, ms(time.Since(t0)))
			if r.checkErr(err, "snapshot save") {
				t0 = time.Now()
				ld, hdr, err := dbstore.Load(path)
				load = append(load, ms(time.Since(t0)))
				if r.checkErr(err, "snapshot load") {
					bytesOnDisk = hdr.Bytes
					snap, err := snapshot(ld)
					r.check(err == nil && bytes.Equal(snap, ref), "loaded snapshot differs from the saved database")
				}
			}
		}

		// The replica runs once with spans and once without, in
		// alternating order and each from a fresh heap, for the
		// tracing overhead.
		cycle := &spanLog{t0: l.t0}
		for _, traced := range [2]bool{len(w1)%2 == 0, len(w1)%2 != 0} {
			runtime.GC()
			t0 := time.Now()
			if traced {
				counts = replicaBuild(cycle, &scratch)
				replica = append(replica, ms(time.Since(t0)))
			} else {
				replicaBuild(nil, &scratch)
				bare = append(bare, ms(time.Since(t0)))
			}
		}
		tot := cycle.totals()
		var sum float64
		for _, n := range replicaLayers {
			layers[n] = append(layers[n], ms(tot[n]))
			sum += ms(tot[n])
		}
		self = append(self, w1[len(w1)-1]-sum)
		l.merge(cycle)
	}
	os.Remove(path)

	n := fmt.Sprintf("(median of %d replica builds, suite total)", len(replica))
	r.set("trace.generate_ms", median(layers["trace.generate"]), n)
	r.set("cpu.annotate_ms", median(layers["cpu.annotate"]), n)
	r.set("cpu.llc_events", float64(counts.llcEvents), "(suite total)")
	r.set("cpu.runcorners_ms", median(layers["cpu.runcorners"]), n)
	r.set("atd.warm_ms", median(layers["atd.warm"]), n)
	r.set("atd.replay_ms", median(layers["atd.replay"]), n)
	r.set("atd.accesses", float64(counts.accesses), "(suite total over distinct permutations)")
	r.set("atd.distinct_perm_ratio", float64(counts.distinct)/float64(counts.lanes),
		fmt.Sprintf("(%d distinct of %d swept lanes)", counts.distinct, counts.lanes))
	w1m := median(w1)
	r.set("db.build_w1_ms", w1m, fmt.Sprintf("(median of %d untraced db.Build, workers=1)", len(w1)))
	selfNote := "(build_w1 minus the layer spans; positive: replay-tree bookkeeping, stats fill and scheduling cost more than the tree's prefix sharing saves)"
	if median(self) < 0 {
		selfNote = "(build_w1 minus the layer spans; negative: the replay tree's prefix sharing saves more than its bookkeeping, stats fill and scheduling cost)"
	}
	r.set("db.self_ms", median(self), selfNote)
	r.set("db.speedup_wn", w1m/median(wn), fmt.Sprintf("(workers=1 %.1f ms / workers=%d %.1f ms)", w1m, cfg.workers, median(wn)))
	r.set("dbstore.save_ms", median(save), fmt.Sprintf("(median of %d)", len(save)))
	r.set("dbstore.load_ms", median(load), fmt.Sprintf("(median of %d)", len(load)))
	r.set("dbstore.bytes", float64(bytesOnDisk), "")
	tm, um := median(replica), median(bare)
	r.set("trace.overhead_pct", 100*(tm-um)/um,
		fmt.Sprintf("(replica with spans %.1f ms vs without %.1f ms, medians of %d)", tm, um, len(bare)))
	l.summary(r.out)
	return l.write(cfg.spans)
}
