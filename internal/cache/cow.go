package cache

// Copy-on-write LRU tag store.
//
// The database sweep replays many slightly different LLC delivery
// sequences on top of one warm tag state. Cloning the whole LRUStack per
// replay copies every set even though a replay touches only the sets its
// events map to — and replays forked from a shared prefix re-copy state
// they have in common. COWStack makes both cheap: tag and validity state
// live in flat structure-of-arrays rows shared between a frozen parent
// and all of its descendants, and a fork materialises (copies) a set's
// row only on the first access that touches it. Untouched sets are read
// through the ancestor chain for free.
//
// The access algorithm over a materialised row is exactly
// LRUStack.Access, so a fork fed the same stream as a cloned stack
// reports identical recency positions (asserted by
// TestCOWMatchesLRUStack).

// COWStack is a copy-on-write view of LRU tag state. It is created by
// LRUStack.ForkCOW (over a frozen full stack) or COWStack.Fork (over a
// frozen ancestor fork) and behaves like an independent LRUStack that
// shares all untouched sets with its ancestors.
type COWStack struct {
	setShift  uint
	setMask   uint64
	ways      int
	blockMask uint64

	base   *LRUStack // ultimate ancestor; read-only once forked from
	parent *COWStack // frozen ancestor fork; nil when forked from base

	// own[set] is the row index of this fork's private copy of the set
	// (into tags/valid, ways entries per row), or -1 while the set is
	// still inherited from the ancestor chain.
	own   []int32
	tags  []uint64
	valid []bool

	// frozen marks a fork that has (or may get) children; its state is
	// immutable and Access panics. Forks are frozen by Freeze or by
	// their first Fork, never unfrozen.
	frozen bool
}

// ForkCOW returns a copy-on-write fork of the stack. The stack becomes
// the fork's shared base and must not be mutated afterwards; the fork
// (and any forks derived from it) never mutates it.
func (s *LRUStack) ForkCOW() *COWStack {
	sets := s.sets()
	c := &COWStack{
		setShift:  s.setShift,
		setMask:   s.setMask,
		ways:      s.ways,
		blockMask: s.blockMask,
		base:      s,
		own:       make([]int32, sets),
		// Full-capacity arenas: materialisation never reallocates, and
		// rows keep stable offsets for descendants reading through the
		// chain.
		tags:  make([]uint64, 0, sets*s.ways),
		valid: make([]bool, 0, sets*s.ways),
	}
	for i := range c.own {
		c.own[i] = -1
	}
	return c
}

// sets returns the number of sets the stack tracks.
func (s *LRUStack) sets() int { return int(s.setMask) + 1 }

// Freeze makes s an immutable snapshot: Access panics from now on. A
// fork shared between goroutines must be frozen before it is published
// to them; Fork on a frozen fork then only reads it, so any number of
// goroutines may fork it concurrently.
func (s *COWStack) Freeze() { s.frozen = true }

// Fork freezes s (unless it already is) and returns a child fork: the
// child shares every set with s (and s's ancestors) until it touches
// it. Freezing is what makes prefix-sharing replays safe — a snapshot
// with descendants can never drift under them.
func (s *COWStack) Fork() *COWStack {
	if !s.frozen {
		s.Freeze()
	}
	c := &COWStack{
		setShift:  s.setShift,
		setMask:   s.setMask,
		ways:      s.ways,
		blockMask: s.blockMask,
		base:      s.base,
		parent:    s,
		own:       make([]int32, len(s.own)),
		tags:      make([]uint64, 0, len(s.own)*s.ways),
		valid:     make([]bool, 0, len(s.own)*s.ways),
	}
	for i := range c.own {
		c.own[i] = -1
	}
	return c
}

// Clone returns an unfrozen deep copy of the fork's private state; the
// shared ancestor chain is reused as is (it is immutable).
func (s *COWStack) Clone() *COWStack {
	c := *s
	c.frozen = false
	c.own = append([]int32(nil), s.own...)
	c.tags = append([]uint64(nil), s.tags...)
	c.valid = append([]bool(nil), s.valid...)
	return &c
}

// MaterializedSets returns how many sets this fork has privately copied
// — the COW store's work measure (a full clone would be Sets()).
func (s *COWStack) MaterializedSets() int { return len(s.tags) / s.ways }

// Sets returns the number of sets the stack tracks.
func (s *COWStack) Sets() int { return len(s.own) }

// Ways returns the deepest recency position tracked.
func (s *COWStack) Ways() int { return s.ways }

// materialize copies the set's row from the nearest ancestor that holds
// it into this fork's private arrays and returns the new row index.
func (s *COWStack) materialize(set int) int32 {
	var srcT []uint64
	var srcV []bool
	found := false
	for p := s.parent; p != nil; p = p.parent {
		if ri := p.own[set]; ri >= 0 {
			b := int(ri) * p.ways
			srcT, srcV = p.tags[b:b+p.ways], p.valid[b:b+p.ways]
			found = true
			break
		}
	}
	if !found {
		b := set * s.base.ways
		srcT, srcV = s.base.tags[b:b+s.base.ways], s.base.valid[b:b+s.base.ways]
	}
	ri := int32(len(s.tags) / s.ways)
	s.tags = append(s.tags, srcT...)
	s.valid = append(s.valid, srcV...)
	s.own[set] = ri
	return ri
}

// Access touches addr and returns its 1-based recency position before
// the access, or 0 if the tag was not resident in any tracked position —
// the same contract, and bit-identical behaviour, as LRUStack.Access.
func (s *COWStack) Access(addr uint64) int {
	if s.frozen {
		panic("cache: Access on a frozen COW fork (it has descendants)")
	}
	tag := addr & s.blockMask
	set := int((addr >> s.setShift) & s.setMask)
	ri := s.own[set]
	if ri < 0 {
		ri = s.materialize(set)
	}
	b := int(ri) * s.ways
	row := s.tags[b : b+s.ways]
	val := s.valid[b : b+s.ways]
	pos := 0
	for i := 0; i < s.ways; i++ {
		// Tag first: it almost always differs, sparing the validity load.
		if row[i] == tag && val[i] {
			pos = i + 1
			copy(row[1:], row[:i])
			copy(val[1:], val[:i])
			row[0], val[0] = tag, true
			return pos
		}
	}
	copy(row[1:], row[:s.ways-1])
	copy(val[1:], val[:s.ways-1])
	row[0], val[0] = tag, true
	return 0
}
