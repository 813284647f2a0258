package cache

import (
	"math/rand"
	"sync"
	"testing"
)

// cowAddr maps a small index to a block address spread over sets.
func cowAddr(rng *rand.Rand, blocks int) uint64 {
	return uint64(rng.Intn(blocks)) * 64
}

// TestCOWMatchesLRUStack drives a COW fork and a full clone with the
// same random stream: every access must report the same recency
// position — the bit-identity contract behind COW replays.
func TestCOWMatchesLRUStack(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		base := MustNewLRUStack(16, 16)
		for i := 0; i < 1000; i++ {
			base.Access(cowAddr(rng, 512))
		}
		clone := base.Clone()
		fork := base.ForkCOW()
		for i := 0; i < 4000; i++ {
			addr := cowAddr(rng, 512)
			pc, pf := clone.Access(addr), fork.Access(addr)
			if pc != pf {
				t.Fatalf("seed %d access %d: clone pos %d, fork pos %d", seed, i, pc, pf)
			}
		}
		if m := fork.MaterializedSets(); m < 1 || m > fork.Sets() {
			t.Fatalf("materialized sets %d outside [1,%d]", m, fork.Sets())
		}
	}
}

// TestCOWForkThenDivergeLeavesParentUntouched is the COW store's
// property test: feed a parent fork a prefix, fork a child, drive the
// child down a divergent suffix, and verify the parent's effective tag
// state still equals an independent replica that only saw the prefix —
// for many random prefixes and suffixes.
func TestCOWForkThenDivergeLeavesParentUntouched(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := MustNewLRUStack(16, 16)
		for i := 0; i < 500; i++ {
			base.Access(cowAddr(rng, 256))
		}
		control := base.Clone() // replica of the parent's history
		parent := base.ForkCOW()
		for i := 0; i < 700; i++ {
			addr := cowAddr(rng, 256)
			parent.Access(addr)
			control.Access(addr)
		}

		child := parent.Fork()
		for i := 0; i < 700; i++ {
			child.Access(cowAddr(rng, 256)) // divergent suffix
		}

		// The frozen parent must still resolve exactly like the control:
		// probe through a fresh fork (the parent itself is immutable).
		probe := parent.Fork()
		ctl := control.Clone()
		for i := 0; i < 2000; i++ {
			addr := cowAddr(rng, 256)
			pp, pc := probe.Access(addr), ctl.Access(addr)
			if pp != pc {
				t.Fatalf("seed %d probe %d: parent snapshot drifted (pos %d vs %d)", seed, i, pp, pc)
			}
		}
	}
}

// TestCOWConcurrentForksOfFrozenParent forks one frozen parent from
// many goroutines at once and drives each child down its own stream:
// every child must match a replica of the parent's history fed the same
// stream. Under the race detector it also pins that Fork on a frozen
// fork only reads it — the property the database's replay tree relies
// on when several workers fork one published snapshot.
func TestCOWConcurrentForksOfFrozenParent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := MustNewLRUStack(16, 16)
	for i := 0; i < 500; i++ {
		base.Access(cowAddr(rng, 256))
	}
	control := base.Clone()
	parent := base.ForkCOW()
	for i := 0; i < 700; i++ {
		addr := cowAddr(rng, 256)
		parent.Access(addr)
		control.Access(addr)
	}
	parent.Freeze()

	const workers = 8
	streams := make([][]uint64, workers)
	for g := range streams {
		for i := 0; i < 1000; i++ {
			streams[g] = append(streams[g], cowAddr(rng, 256))
		}
	}
	got := make([][]int, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			child := parent.Fork()
			for _, addr := range streams[g] {
				got[g] = append(got[g], child.Access(addr))
			}
		}()
	}
	close(start)
	wg.Wait()

	for g, stream := range streams {
		ctl := control.Clone()
		for i, addr := range stream {
			if want := ctl.Access(addr); got[g][i] != want {
				t.Fatalf("child %d access %d: pos %d, replica %d", g, i, got[g][i], want)
			}
		}
	}
}

// TestCOWFrozenAccessPanics pins the safety contract: a fork with
// descendants is immutable and must refuse further accesses.
func TestCOWFrozenAccessPanics(t *testing.T) {
	base := MustNewLRUStack(16, 16)
	f := base.ForkCOW()
	f.Fork() // freezes f
	defer func() {
		if recover() == nil {
			t.Fatal("Access on a frozen COW fork did not panic")
		}
	}()
	f.Access(0)
}

// TestCOWCloneIsIndependent checks that cloning an unfrozen fork yields
// an independently mutable copy.
func TestCOWCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := MustNewLRUStack(16, 16)
	for i := 0; i < 300; i++ {
		base.Access(cowAddr(rng, 128))
	}
	a := base.ForkCOW()
	for i := 0; i < 300; i++ {
		a.Access(cowAddr(rng, 128))
	}
	b := a.Clone()
	refA := a.Clone()
	for i := 0; i < 500; i++ {
		b.Access(cowAddr(rng, 128))
	}
	// a (via a fresh clone) must behave like refA despite b's accesses.
	for i := 0; i < 1000; i++ {
		addr := cowAddr(rng, 128)
		p1, p2 := a.Access(addr), refA.Access(addr)
		if p1 != p2 {
			t.Fatalf("probe %d: clone accesses leaked into source (pos %d vs %d)", i, p1, p2)
		}
	}
}
