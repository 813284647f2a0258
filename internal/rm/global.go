package rm

import (
	"fmt"
	"math"

	"qosrm/internal/config"
	"qosrm/internal/perfmodel"
)

// GlobalOptimize reduces the per-core energy curves pairwise until a
// single curve remains (Figure 3), then backtracks the way split that
// minimises Σ E_j(w_j) subject to Σ w_j = totalWays and
// MinWays ≤ w_j ≤ MaxWays.
//
// It returns the chosen setting per core (Pick entries of each curve at
// the granted allocation). The boolean is false when no feasible
// distribution exists, which cannot happen while the baseline setting
// itself is feasible for every core.
//
// The reduction is the paper's polynomial-complexity scheme: combining
// two curves of length L costs O(L²) and the recursion performs n-1
// combines for n cores. This entry point runs one call on a fresh
// workspace, so every combine is performed; the per-interval hot path
// in the co-simulator reuses one Workspace across calls instead (see
// Workspace.Optimize), which recombines only what changed since its
// previous call.
func GlobalOptimize(curves []*Curve, totalWays int) ([]config.Setting, bool) {
	if len(curves) == 0 {
		return nil, false
	}
	var ws Workspace
	out := make([]config.Setting, len(curves))
	if !ws.Optimize(curves, totalWays, out) {
		return nil, false
	}
	return out, true
}

// Workspace holds the reduction tree of the global optimisation as a
// reusable, incrementally updated arena. Node energies, split tables and
// the tree structure are allocated once per core count; every later call
// with the same core count runs allocation-free and reuses the previous
// call's reduced curves wherever its inputs did not change.
//
// The incremental contract: a leaf is dirty when its curve's energies
// differ bit for bit (math.Float64bits) from the ones the previous call
// saw — curve identity is irrelevant, so a bit-identical curve at a new
// address is clean and a curve mutated in place is dirty. An inner node
// is recombined only when one of its children is dirty. The root is
// evaluated at the requested total alone, since backtracking reads
// nothing else there. A call therefore costs O(n·L) to compare the
// leaves, O(L²) per dirty non-root inner node (at most the ⌈log₂ n⌉−1
// nodes on the path above each changed core, none when nothing changed)
// and O(n·L) at the root, against O(n·L²) for a full reduction. The
// chosen settings are identical to GlobalOptimizeReference's in every
// case. A Workspace is not safe for concurrent use; its zero value is
// ready.
type Workspace struct {
	n int
	// primed reports that every node holds the reduction of the previous
	// call's curves; it is cleared whenever the tree is rebuilt.
	primed bool
	nodes  []wsNode
}

// wsNode is one aggregate of the reduction tree: a reduced energy curve
// over cores lo..hi-1 plus the split table needed to backtrack.
type wsNode struct {
	lo, hi      int
	minW        int // smallest representable total allocation
	left, right int // child node indices; -1 on leaves
	energy      []float64
	// split[i] is, for total allocation minW+i, the number of ways given
	// to the left child group (inner nodes only).
	split []int
	// dirty marks a node whose energy changed in the current call.
	dirty bool
}

// Optimize is GlobalOptimize into a caller-provided result slice (len ≥
// len(curves)), reusing and incrementally updating the workspace's
// reduction tree (see Workspace for the contract and per-call cost). The
// computation of every entry it evaluates — combine order, iteration
// order, tie-breaking — replicates GlobalOptimizeReference exactly, so
// the chosen settings are identical to the seed implementation's
// (enforced by TestWorkspaceMatchesReference and
// TestWorkspaceIncrementalMatchesReference).
func (ws *Workspace) Optimize(curves []*Curve, totalWays int, out []config.Setting) bool {
	n := len(curves)
	if n == 0 {
		return false
	}
	if totalWays < n*config.MinWays || totalWays > n*config.MaxWays {
		panic(fmt.Sprintf("rm: %d ways cannot be split across %d cores", totalWays, n))
	}
	ws.ensure(n)

	// Refresh every node below the root bottom-up; nodes are stored in
	// post order, so children always precede their parents.
	root := len(ws.nodes) - 1
	for i := range ws.nodes[:root] {
		nd := &ws.nodes[i]
		if nd.left < 0 {
			nd.dirty = nd.load(curves[nd.lo]) || !ws.primed
			continue
		}
		nd.dirty = ws.nodes[nd.left].dirty || ws.nodes[nd.right].dirty
		if nd.dirty {
			combineInto(nd, &ws.nodes[nd.left], &ws.nodes[nd.right])
		}
	}
	ws.primed = true

	rt := &ws.nodes[root]
	idx := totalWays - rt.minW
	if rt.left < 0 {
		// A single core is its own root: it takes every way.
		if math.IsInf(curves[0].Energy[idx], 1) {
			return false
		}
		out[0] = curves[0].Pick[idx]
		return true
	}
	combineAt(rt, &ws.nodes[rt.left], &ws.nodes[rt.right], idx)
	if math.IsInf(rt.energy[idx], 1) {
		return false
	}
	ws.assign(root, totalWays, curves, out)
	return true
}

// ensure (re)builds the tree structure for n cores; buffers are reused
// while n is stable.
func (ws *Workspace) ensure(n int) {
	if ws.n == n {
		return
	}
	ws.n = n
	ws.primed = false
	ws.nodes = ws.nodes[:0]
	var build func(lo, hi int) int
	build = func(lo, hi int) int {
		if hi-lo == 1 {
			ws.nodes = append(ws.nodes, wsNode{
				lo: lo, hi: hi,
				minW:   config.MinWays,
				left:   -1,
				right:  -1,
				energy: make([]float64, perfmodel.NumWays),
			})
			return len(ws.nodes) - 1
		}
		mid := (lo + hi) / 2
		l := build(lo, mid)
		r := build(mid, hi)
		length := len(ws.nodes[l].energy) + len(ws.nodes[r].energy) - 1
		ws.nodes = append(ws.nodes, wsNode{
			lo: lo, hi: hi,
			minW:   ws.nodes[l].minW + ws.nodes[r].minW,
			left:   l,
			right:  r,
			energy: make([]float64, length),
			split:  make([]int, length),
		})
		return len(ws.nodes) - 1
	}
	build(0, n)
}

// load copies the curve's energies into the leaf and reports whether any
// of them differed bit for bit from the leaf's previous contents.
func (nd *wsNode) load(cv *Curve) bool {
	changed := false
	for i, e := range cv.Energy[:len(nd.energy)] {
		if math.Float64bits(e) != math.Float64bits(nd.energy[i]) {
			nd.energy[i] = e
			changed = true
		}
	}
	return changed
}

// combineInto merges two group curves: E(W) = min over wl+wr=W of
// El(wl)+Er(wr), with the seed's tie-breaking (strictly-smaller wins, so
// the smallest feasible left allocation is kept on ties). An infeasible
// right entry needs no test: +Inf + x is never below the running
// minimum, so it can never win.
func combineInto(a, l, r *wsNode) {
	for i := range a.energy {
		a.energy[i] = math.Inf(1)
		a.split[i] = -1
	}
	re := r.energy
	for li, le := range l.energy {
		if math.IsInf(le, 1) {
			continue
		}
		// The outputs li..li+len(re)-1 this row can reach.
		dst := a.energy[li : li+len(re)]
		split := a.split[li : li+len(re)]
		sw := l.minW + li
		for ri, e := range re {
			if v := le + e; v < dst[ri] {
				dst[ri] = v
				split[ri] = sw
			}
		}
	}
}

// combineAt evaluates combineInto's merge at output index i alone,
// visiting the same candidates in the same (ascending left) order, so
// a.energy[i] and a.split[i] come out identical.
func combineAt(a, l, r *wsNode, i int) {
	best, split := math.Inf(1), -1
	for li := max(0, i-len(r.energy)+1); li < len(l.energy) && li <= i; li++ {
		le := l.energy[li]
		if math.IsInf(le, 1) {
			continue
		}
		if v := le + r.energy[i-li]; v < best {
			best, split = v, l.minW+li
		}
	}
	a.energy[i], a.split[i] = best, split
}

// assign walks the reduction tree distributing the granted total.
func (ws *Workspace) assign(node, total int, curves []*Curve, out []config.Setting) {
	nd := &ws.nodes[node]
	if nd.left < 0 {
		out[nd.lo] = curves[nd.lo].Pick[total-config.MinWays]
		return
	}
	leftW := nd.split[total-nd.minW]
	if leftW < 0 {
		panic("rm: backtracking through infeasible aggregate")
	}
	ws.assign(nd.left, leftW, curves, out)
	ws.assign(nd.right, total-leftW, curves, out)
}

// aggregate is the seed's reduction-tree node, kept for
// GlobalOptimizeReference.
type aggregate struct {
	lo, hi int // group covers cores lo..hi-1
	minW   int // smallest representable total allocation
	energy []float64
	// split[i] is, for total allocation minW+i, the number of ways given
	// to the left child group (meaningful only for inner nodes).
	split []int
	left  *aggregate
	right *aggregate
	// leafCurve is set on leaves.
	leafCurve *Curve
}

// GlobalOptimizeReference is the seed implementation of GlobalOptimize,
// retained verbatim as the equivalence baseline: it rebuilds the
// reduction tree with fresh allocations on every call. Tests assert the
// workspace path returns identical settings; perfbench measures the two
// against each other.
func GlobalOptimizeReference(curves []*Curve, totalWays int) ([]config.Setting, bool) {
	n := len(curves)
	if n == 0 {
		return nil, false
	}
	if totalWays < n*config.MinWays || totalWays > n*config.MaxWays {
		panic(fmt.Sprintf("rm: %d ways cannot be split across %d cores", totalWays, n))
	}
	root := reduce(curves, 0, n)
	idx := totalWays - root.minW
	if idx < 0 || idx >= len(root.energy) || math.IsInf(root.energy[idx], 1) {
		return nil, false
	}
	out := make([]config.Setting, n)
	assign(root, totalWays, curves, out)
	return out, true
}

// reduce builds the reduction tree over curves[lo:hi].
func reduce(curves []*Curve, lo, hi int) *aggregate {
	if hi-lo == 1 {
		a := &aggregate{
			lo: lo, hi: hi,
			minW:      config.MinWays,
			energy:    make([]float64, perfmodel.NumWays),
			leafCurve: curves[lo],
		}
		copy(a.energy, curves[lo].Energy[:])
		return a
	}
	mid := (lo + hi) / 2
	l := reduce(curves, lo, mid)
	r := reduce(curves, mid, hi)
	return combine(l, r)
}

// combine merges two group curves: E(W) = min over wl+wr=W of
// El(wl)+Er(wr).
func combine(l, r *aggregate) *aggregate {
	a := &aggregate{
		lo: l.lo, hi: r.hi,
		minW:   l.minW + r.minW,
		left:   l,
		right:  r,
		energy: make([]float64, len(l.energy)+len(r.energy)-1),
		split:  make([]int, len(l.energy)+len(r.energy)-1),
	}
	for i := range a.energy {
		a.energy[i] = math.Inf(1)
		a.split[i] = -1
	}
	for li, le := range l.energy {
		if math.IsInf(le, 1) {
			continue
		}
		for ri, re := range r.energy {
			if math.IsInf(re, 1) {
				continue
			}
			i := li + ri
			if e := le + re; e < a.energy[i] {
				a.energy[i] = e
				a.split[i] = l.minW + li
			}
		}
	}
	return a
}

// assign walks the reduction tree distributing the granted total.
func assign(a *aggregate, total int, curves []*Curve, out []config.Setting) {
	if a.leafCurve != nil {
		out[a.lo] = a.leafCurve.Pick[total-config.MinWays]
		return
	}
	leftW := a.split[total-a.minW]
	if leftW < 0 {
		panic("rm: backtracking through infeasible aggregate")
	}
	assign(a.left, leftW, curves, out)
	assign(a.right, total-leftW, curves, out)
}
