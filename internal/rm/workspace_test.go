package rm

import (
	"math"
	"math/rand"
	"testing"

	"qosrm/internal/config"
)

// TestWorkspaceMatchesReference checks the allocation-free workspace
// reduction against the seed implementation setting-by-setting (not
// just by total energy): iteration order and tie-breaking are
// replicated, so the chosen (core, frequency, ways) triples must be
// identical. One workspace is reused across calls and core counts to
// exercise buffer reuse.
func TestWorkspaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws Workspace
	out := make([]config.Setting, 8)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		ref, okRef := GlobalOptimizeReference(curves, total)
		ok := ws.Optimize(curves, total, out[:n])
		if ok != okRef {
			t.Fatalf("trial %d (n=%d): feasibility %v vs reference %v", trial, n, ok, okRef)
		}
		if !ok {
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("trial %d (n=%d) core %d: workspace %v, reference %v",
					trial, n, i, out[i], ref[i])
			}
		}
	}
}

// TestWorkspaceIncrementalMatchesReference drives one Workspace through
// a long random call sequence and requires every call to equal the seed
// reduction. The steps cover what the incremental update must get
// right: no leaf changed, one or many leaves changed, bit-identical
// curves at new addresses, a curve mutated in place, +Inf entries and
// all-Inf (infeasible) curves, energies quantised so that ties are
// common, a moving way total over an unchanged tree, and the core count
// changing between calls (also to all-zero curves, which a fresh tree's
// zeroed buffers already hold).
func TestWorkspaceIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var ws Workspace
	out := make([]config.Setting, 8)
	n := 8
	curves := randomCurves(rng, n)
	total := config.TotalWays(n)
	feasible := 0
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); op {
		case 0: // new core count
			n = 1 + rng.Intn(8)
			curves = randomCurves(rng, n)
			total = config.TotalWays(n)
			if rng.Intn(3) == 0 {
				// Zero energies match a freshly allocated tree bit for
				// bit: only the rebuild itself can mark them dirty.
				for i := range curves {
					curves[i].Energy = [len(curves[i].Energy)]float64{}
				}
			}
		case 1: // nothing changes
		case 2, 3: // one leaf gets a new curve
			curves[rng.Intn(n)] = tieCurve(rng)
		case 4: // many leaves get new curves
			for i := range curves {
				if rng.Intn(2) == 0 {
					curves[i] = tieCurve(rng)
				}
			}
		case 5: // bit-identical curves at new addresses
			for i := range curves {
				cv := *curves[i]
				curves[i] = &cv
			}
		case 6: // one leaf becomes infeasible everywhere
			cv := &Curve{}
			for wi := range cv.Energy {
				cv.Energy[wi] = math.Inf(1)
			}
			curves[rng.Intn(n)] = cv
		case 7: // one entry of one curve mutated in place
			cv := curves[rng.Intn(n)]
			wi := rng.Intn(len(cv.Energy))
			if rng.Intn(3) == 0 {
				cv.Energy[wi] = math.Inf(1)
			} else {
				cv.Energy[wi] = float64(rng.Intn(4)) / 4
				cv.Pick[wi] = config.Setting{Core: config.SizeS, Freq: rng.Intn(config.NumFreqs), Ways: config.MinWays + wi}
			}
		case 8: // the same curves split a different way total
			total = n*config.MinWays + rng.Intn(n*(config.MaxWays-config.MinWays)+1)
		case 9: // two leaves swap curves
			i, j := rng.Intn(n), rng.Intn(n)
			curves[i], curves[j] = curves[j], curves[i]
		}
		ref, okRef := GlobalOptimizeReference(curves, total)
		ok := ws.Optimize(curves, total, out[:n])
		if ok != okRef {
			t.Fatalf("step %d (n=%d, total=%d): feasibility %v vs reference %v", step, n, total, ok, okRef)
		}
		if !ok {
			continue
		}
		feasible++
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("step %d (n=%d, total=%d) core %d: workspace %v, reference %v",
					step, n, total, i, out[i], ref[i])
			}
		}
	}
	if feasible < 1000 {
		t.Fatalf("only %d of 3000 steps were feasible; the sequence barely exercises backtracking", feasible)
	}
}

// tieCurve is a random curve whose energies take four distinct values,
// so equal-energy splits (the tie-breaking rule) are common, with about
// one infeasible allocation in five. The baseline allocation stays
// feasible.
func tieCurve(rng *rand.Rand) *Curve {
	cv := &Curve{}
	for wi := range cv.Energy {
		if rng.Intn(5) == 0 && wi != config.BaseWays-config.MinWays {
			cv.Energy[wi] = math.Inf(1)
			continue
		}
		cv.Energy[wi] = float64(1+rng.Intn(4)) / 4
		cv.Pick[wi] = config.Setting{
			Core: config.Sizes[rng.Intn(3)],
			Freq: rng.Intn(config.NumFreqs),
			Ways: config.MinWays + wi,
		}
	}
	return cv
}

// TestWorkspaceSteadyStateAllocationFree pins the per-interval budget of
// the reduction: once the tree exists for a core count, a call that
// changes a leaf recombines its path without allocating.
func TestWorkspaceSteadyStateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	curves := randomCurves(rng, 8)
	alt := [2]*Curve{curves[0], randomCurves(rng, 1)[0]}
	var ws Workspace
	out := make([]config.Setting, 8)
	i := 0
	n := testing.AllocsPerRun(200, func() {
		i++
		curves[0] = alt[i&1]
		ws.Optimize(curves, config.TotalWays(8), out)
	})
	if n > 0 {
		t.Errorf("Workspace.Optimize allocates %.0f times per steady-state call, want 0", n)
	}
}

// TestGlobalOptimizeMatchesReference pins the package-level entry point
// (fresh workspace per call) to the seed implementation too.
func TestGlobalOptimizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(4)
		curves := randomCurves(rng, n)
		total := config.TotalWays(n)
		fast, okF := GlobalOptimize(curves, total)
		ref, okR := GlobalOptimizeReference(curves, total)
		if okF != okR {
			t.Fatalf("trial %d: feasibility diverges", trial)
		}
		for i := range ref {
			if fast[i] != ref[i] {
				t.Fatalf("trial %d core %d: %v vs %v", trial, i, fast[i], ref[i])
			}
		}
	}
}

// TestWorkspaceInfeasible mirrors the reference's infeasibility
// behaviour.
func TestWorkspaceInfeasible(t *testing.T) {
	pin := &Curve{}
	for i := range pin.Energy {
		pin.Energy[i] = math.Inf(1)
	}
	pin.Energy[0] = 1 // only MinWays feasible
	pin.Pick[0] = config.Setting{Core: config.SizeM, Freq: 4, Ways: config.MinWays}
	var ws Workspace
	out := make([]config.Setting, 2)
	if ws.Optimize([]*Curve{pin, pin}, 16, out) {
		t.Fatal("two cores pinned to 2 ways cannot absorb 16")
	}
	if ws.Optimize(nil, 16, nil) {
		t.Fatal("empty input must be infeasible")
	}
}

// TestCurveCacheMemoizes checks the memoization contract: one compute
// per key, shared pointer on hits.
func TestCurveCacheMemoizes(t *testing.T) {
	var cc CurveCache
	calls := 0
	compute := func() Curve {
		calls++
		cv := Curve{}
		cv.Energy[0] = float64(calls)
		return cv
	}
	a := cc.Get("k1", compute)
	b := cc.Get("k1", compute)
	if calls != 1 || a != b {
		t.Fatalf("want one compute and a shared curve, got %d computes", calls)
	}
	c := cc.Get("k2", compute)
	if calls != 2 || c == a {
		t.Fatal("distinct keys must compute distinct curves")
	}
	if cc.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", cc.Len())
	}
}

// BenchmarkGlobalOptimizeWorkspace8 measures the reused-workspace path
// against BenchmarkGlobalOptimize8 (the fresh-allocation entry point).
// Core 0 alternates between two curves, the co-simulator's common case
// of one core's curve changing per invocation: each call recombines the
// path above that core, not just the root.
func BenchmarkGlobalOptimizeWorkspace8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	curves := randomCurves(rng, 8)
	alt := [2]*Curve{curves[0], randomCurves(rng, 1)[0]}
	var ws Workspace
	out := make([]config.Setting, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves[0] = alt[i&1]
		if !ws.Optimize(curves, config.TotalWays(8), out) {
			b.Fatal("infeasible")
		}
	}
}
