// Package atd implements the Auxiliary Tag Directory used for online
// cache-miss profiling (Qureshi & Patt's UCP mechanism) together with the
// paper's proposed extension: per-(core size, way allocation) leading-miss
// counters that estimate memory-level parallelism across the whole
// configuration space from a single observed access stream (Section III-C
// and Figure 4).
//
// The ATD emulates the LLC tag directory: every LLC access is looked up
// in an LRU stack and its recency position recorded. By LRU inclusion,
// an access at position p hits for every allocation of at least p ways,
// so a histogram of positions yields the miss count for every possible
// allocation in one pass.
//
// The extension adds, for every core size c and allocation w, a miss
// counter that counts only the leading misses of overlapping groups.
// Each access carries an instruction index over a fixed 1024-entry
// window (10 bits, four times the largest ROB). A predicted miss is
// counted as overlapping (not leading) if it is within ROB(c) of the
// last leading miss and shows no out-of-order-arrival evidence of a data
// dependence; otherwise it starts a new leading miss.
package atd

import (
	"fmt"

	"qosrm/internal/cache"
	"qosrm/internal/config"
)

// DefaultIndexBits is the paper's instruction-index width: 10 bits
// cover a window of four times the largest ROB (Section III-C). The
// paper flags the sensitivity of the RM to this width as future work;
// New uses the default and NewWithIndexBits exposes the knob for that
// study (see experiments.AblationIndexBits).
const DefaultIndexBits = 10

func init() {
	if 1<<DefaultIndexBits != config.IndexWindow {
		panic("atd: index width inconsistent with config.IndexWindow")
	}
}

// lmState is one extension miss counter: the running leading-miss count
// plus the two registers of Figure 4 ("Last LM Indx", "Last OV Dist.").
type lmState struct {
	count     int64
	lastLM    int32 // masked instruction index of the last leading miss, -1 = none
	lastOVDst int32 // distance of the last overlapping miss to lastLM, -1 = none
}

// numWays is the number of tracked allocations per core size (2..16).
const numWays = config.MaxWays - config.MinWays + 1

// ATD is an auxiliary tag directory for one core's view of the LLC,
// with the leading-miss extension.
type ATD struct {
	stack *cache.LRUStack
	// cow replaces stack on forked ATDs (see Fork): a copy-on-write view
	// of the parent's tag state that materialises only the sets this
	// descendant touches.
	cow         *cache.COWStack
	sampleShift uint
	sampleMask  uint64
	setShift    uint
	indexMask   int32 // instruction-index window mask (2^bits − 1)
	robs        [config.NumSizes]int32

	accesses int64 // sampled LLC accesses observed
	hitHist  [config.MaxWays + 1]int64
	cold     int64

	// lm[w-MinWays][c] is the extension counter for allocation w and
	// core size c: 15 × 3 = 45 counters (the paper budgets 48). The
	// layout is way-major so the hot update — a prefix of allocations,
	// all three core sizes each — walks memory densely.
	lm [numWays][config.NumSizes]lmState
}

// New returns an ATD sampling one in 2^sampleShift LLC sets with the
// paper's 10-bit instruction index. Shift 0 observes every set (exact
// profiling); the paper's hardware would use a larger shift to bound
// area.
func New(sampleShift uint) (*ATD, error) {
	return NewWithIndexBits(sampleShift, DefaultIndexBits)
}

// NewWithIndexBits is New with a configurable instruction-index width.
// Narrower indices wrap more often, so distances between a miss and the
// last leading miss alias modulo 2^bits and the overlap heuristic loses
// accuracy — the trade-off the paper leaves for future work.
func NewWithIndexBits(sampleShift uint, indexBits int) (*ATD, error) {
	if indexBits < 1 || indexBits > 30 {
		return nil, fmt.Errorf("atd: index width %d bits outside [1,30]", indexBits)
	}
	sets := config.L3BytesPerCore / config.BlockBytes / config.L3WaysPerCore
	sampled := sets >> sampleShift
	if sampled < 1 {
		return nil, fmt.Errorf("atd: sample shift %d leaves no sets (of %d)", sampleShift, sets)
	}
	a := &ATD{
		stack:       cache.MustNewLRUStack(sampled, config.MaxWays),
		sampleShift: sampleShift,
		sampleMask:  uint64(1<<sampleShift) - 1,
		setShift:    6, // log2(block bytes)
		indexMask:   int32(1<<indexBits - 1),
	}
	for ci, c := range config.Sizes {
		a.robs[ci] = int32(config.Core(c).ROB)
	}
	a.resetLMRegisters()
	return a, nil
}

// MustNew is New panicking on error, for known-good shifts.
func MustNew(sampleShift uint) *ATD {
	a, err := New(sampleShift)
	if err != nil {
		panic(err)
	}
	return a
}

// Clone returns a deep copy of the ATD: tag state, histograms and all
// leading-miss counters. The database sweep warms one ATD per phase and
// clones it for every (core size, frequency, ways) run, since warmup is
// setting-independent.
func (a *ATD) Clone() *ATD {
	c := *a
	if a.cow != nil {
		c.cow = a.cow.Clone()
	} else {
		c.stack = a.stack.Clone()
	}
	return &c
}

// Fork returns a copy-on-write descendant of the ATD: counters and
// leading-miss registers are copied by value, and the tag state is a
// COW view that shares every set with a until the fork touches it. The
// parent is frozen by the fork — it must not observe further accesses
// (reading its estimates stays safe) — which is exactly the shape of a
// prefix-sharing replay tree: interior snapshots are immutable, only
// leaves advance. Fork is cheap (one small row-index table) compared to
// Clone's full tag copy.
func (a *ATD) Fork() *ATD {
	c := *a
	if a.cow != nil {
		c.cow = a.cow.Fork()
	} else {
		c.cow = a.stack.ForkCOW()
		c.stack = nil
	}
	return &c
}

// Freeze makes the ATD an immutable snapshot that any number of
// goroutines may Fork concurrently: Fork on a frozen ATD only reads it.
// A full-stack ATD is never written by Fork (ForkCOW only reads the
// stack it shares), so only a copy-on-write fork has anything to mark.
// The ATD must not observe further accesses.
func (a *ATD) Freeze() {
	if a.cow != nil {
		a.cow.Freeze()
	}
}

// MaterializedSets returns how many tag sets this fork has privately
// copied, or -1 when the ATD is not a fork. It is the COW store's work
// measure, exposed for tests and diagnostics.
func (a *ATD) MaterializedSets() int {
	if a.cow == nil {
		return -1
	}
	return a.cow.MaterializedSets()
}

func (a *ATD) resetLMRegisters() {
	for w := range a.lm {
		for c := range a.lm[w] {
			a.lm[w][c].lastLM = -1
			a.lm[w][c].lastOVDst = -1
		}
	}
}

// sampled reports whether addr falls in a sampled set.
func (a *ATD) sampled(addr uint64) bool {
	return (addr>>a.setShift)&a.sampleMask == 0
}

// Access observes one LLC access (a memory request that missed the
// private L2) with its 10-bit instruction index. Both loads and stores
// update the recency profile, but only loads drive the leading-miss
// counters (store misses are absorbed by the write buffer and do not
// stall the core). Only accesses to sampled sets update state.
func (a *ATD) Access(addr uint64, instIdx int64, isLoad bool) {
	if !a.sampled(addr) {
		return
	}
	a.accesses++
	// Shift the sampled bits out so the stack sees a dense set index.
	dense := (addr >> a.setShift >> a.sampleShift << a.setShift) | (addr & (1<<a.setShift - 1))
	var pos int
	if a.cow != nil {
		pos = a.cow.Access(dense)
	} else {
		pos = a.stack.Access(dense)
	}
	if pos == 0 {
		a.cold++
	} else {
		a.hitHist[pos]++
	}
	if !isLoad {
		return
	}
	// An access at recency position pos misses exactly for allocations
	// w < pos (and for every allocation when absent): the counters to
	// update form the prefix wi < pos-MinWays of each bank, so the hit
	// entries are skipped wholesale instead of tested one by one.
	limit := numWays
	if pos != 0 {
		limit = pos - config.MinWays // pos ≤ MaxWays keeps this < numWays
		if limit <= 0 {
			return
		}
	}
	idx := int32(instIdx) & a.indexMask
	mask := a.indexMask
	r0, r1, r2 := a.robs[0], a.robs[1], a.robs[2]
	lm := a.lm[:limit]
	for j := range lm {
		b := &lm[j]
		b[0].observeMiss(idx, r0, mask)
		b[1].observeMiss(idx, r1, mask)
		b[2].observeMiss(idx, r2, mask)
	}
}

// observeMiss applies the Figure 4 heuristic to one predicted miss. A
// miss leads when any of these hold, otherwise it overlaps the last
// leading miss:
//
//   - no leading miss has been seen yet (lastLM < 0);
//   - it is outside the reorder window of the last leading miss
//     (dist >= rob), so the core cannot overlap them;
//   - it arrived out of order relative to the last overlapping access
//     (lastOVDst >= 0 && dist < lastOVDst), which the paper's heuristic
//     attributes to a serialising data dependence on the previous
//     leading miss.
//
// This is the hottest loop of the database sweep (45 counters per
// observed miss), so the state transition is computed branchlessly: the
// conditions become sign bits and the update a select mask. The
// transitions are exactly the imperative ones above.
func (s *lmState) observeMiss(idx, rob, indexMask int32) {
	dist := (idx - s.lastLM) & indexMask
	lead := uint32(rob-1-dist)>>31 | // dist >= rob
		uint32(s.lastLM)>>31 | // first miss
		(uint32(dist-s.lastOVDst)>>31)&^(uint32(s.lastOVDst)>>31) // dist < lastOVDst >= 0
	m := -int32(lead) // all ones when leading
	s.count += int64(lead)
	s.lastLM = (idx & m) | (s.lastLM &^ m)
	s.lastOVDst = m | (dist &^ m) // -1 when leading, else dist
}

// AccessReference is the seed implementation of Access, retained
// verbatim (together with observeMissReference and the stack's
// AccessReference) so the database sweep's reference path measures the
// seed's per-access cost, not one sped up by later optimisations. Tests
// assert Access and AccessReference leave identical state.
func (a *ATD) AccessReference(addr uint64, instIdx int64, isLoad bool) {
	if !a.sampled(addr) {
		return
	}
	a.accesses++
	dense := (addr >> a.setShift >> a.sampleShift << a.setShift) | (addr & (1<<a.setShift - 1))
	pos := a.stack.AccessReference(dense)
	if pos == 0 {
		a.cold++
	} else {
		a.hitHist[pos]++
	}
	if !isLoad {
		return
	}
	idx := int32(instIdx) & a.indexMask
	for ci, c := range config.Sizes {
		rob := int32(config.Core(c).ROB)
		for wi := 0; wi < numWays; wi++ {
			w := config.MinWays + wi
			if pos != 0 && pos <= w {
				continue // predicted hit at allocation w: not a miss at all
			}
			a.lm[wi][ci].observeMissReference(idx, rob, a.indexMask)
		}
	}
}

// observeMissReference is the seed implementation of observeMiss.
func (s *lmState) observeMissReference(idx, rob, indexMask int32) {
	if s.lastLM < 0 {
		// First leading miss.
		s.count++
		s.lastLM = idx
		s.lastOVDst = -1
		return
	}
	dist := (idx - s.lastLM) & indexMask
	switch {
	case dist >= rob:
		// Outside the reorder window of the last leading miss: the core
		// cannot overlap them, so a new leading miss begins.
		s.count++
		s.lastLM = idx
		s.lastOVDst = -1
	case s.lastOVDst >= 0 && dist < s.lastOVDst:
		// Arrived out of order relative to the last overlapping access:
		// the paper's heuristic attributes this to a data dependence on
		// the previous leading miss, which serialises it.
		s.count++
		s.lastLM = idx
		s.lastOVDst = -1
	default:
		// Overlaps the last leading miss.
		s.lastOVDst = dist
	}
}

// scale is the set-sampling expansion factor.
func (a *ATD) scale() int64 { return 1 << a.sampleShift }

// Accesses returns the estimated total LLC accesses (sampled count
// scaled by the sampling factor).
func (a *ATD) Accesses() int64 { return a.accesses * a.scale() }

// Misses returns the estimated number of LLC misses if this core were
// allocated w ways: hits at recency positions deeper than w plus cold
// misses (Section III-C).
func (a *ATD) Misses(w int) int64 {
	if w < 0 {
		w = 0
	}
	if w > config.MaxWays {
		w = config.MaxWays
	}
	n := a.cold
	for p := w + 1; p <= config.MaxWays; p++ {
		n += a.hitHist[p]
	}
	return n * a.scale()
}

// LeadingMisses returns the extension's estimate of the number of
// leading (non-overlapped) misses for core size c and allocation w.
func (a *ATD) LeadingMisses(c config.CoreSize, w int) int64 {
	wi := clampWays(w) - config.MinWays
	return a.lm[wi][c].count * a.scale()
}

// MLP returns the estimated memory-level parallelism at (c, w): total
// misses divided by leading misses, at least 1.
func (a *ATD) MLP(c config.CoreSize, w int) float64 {
	lm := a.LeadingMisses(c, w)
	if lm == 0 {
		return 1
	}
	m := float64(a.Misses(w)) / float64(lm)
	if m < 1 {
		return 1
	}
	return m
}

// MissCurve returns Misses(w) for every allocation MinWays..MaxWays,
// indexed by w-MinWays.
func (a *ATD) MissCurve() [numWays]int64 {
	var out [numWays]int64
	for wi := 0; wi < numWays; wi++ {
		out[wi] = a.Misses(config.MinWays + wi)
	}
	return out
}

// LMMatrix returns the full leading-miss estimate matrix, indexed by
// [core size][w-MinWays]. This is what the RM's performance model reads
// at the end of each interval.
func (a *ATD) LMMatrix() [config.NumSizes][numWays]int64 {
	var out [config.NumSizes][numWays]int64
	for c := range out {
		for w := range out[c] {
			out[c][w] = a.lm[w][c].count * a.scale()
		}
	}
	return out
}

// ResetCounters clears histograms and leading-miss counters while
// keeping tag state warm; the RM does this at every interval boundary.
func (a *ATD) ResetCounters() {
	a.accesses, a.cold = 0, 0
	for i := range a.hitHist {
		a.hitHist[i] = 0
	}
	for w := range a.lm {
		for c := range a.lm[w] {
			a.lm[w][c].count = 0
		}
	}
	a.resetLMRegisters()
}

func clampWays(w int) int {
	if w < config.MinWays {
		return config.MinWays
	}
	if w > config.MaxWays {
		return config.MaxWays
	}
	return w
}

// NumTrackedWays is the number of allocations each counter bank tracks.
const NumTrackedWays = numWays
