package sim

import (
	"fmt"
	"math/bits"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// crashSet is a crash plan's agent set, packed one bit per agent id, with
// the round from which its agents are down. It costs n/8 bytes for ids
// below n and answers each query in O(1). It is read-only once built, so
// concurrent Crashed calls need no lock.
type crashSet struct {
	words []uint64
	count int
	round int
}

// newCrashSet returns an empty set with room for ids in [0, n).
func newCrashSet(n, round int) crashSet {
	return crashSet{words: make([]uint64, (n+63)/64), round: round}
}

// has reports whether agent a is in the set; ids outside it (negative ones
// included, which wrap to huge unsigned words) are not.
func (s *crashSet) has(a int) bool {
	w := uint(a) >> 6
	return w < uint(len(s.words)) && s.words[w]>>(uint(a)&63)&1 != 0
}

// set adds agent a, which must lie inside the set's range.
func (s *crashSet) set(a int) { s.words[a>>6] |= 1 << (a & 63) }

// clear removes agent a from the set if a lies inside its range.
func (s *crashSet) clear(a int) {
	if w := uint(a) >> 6; w < uint(len(s.words)) {
		s.words[w] &^= 1 << (uint(a) & 63)
	}
}

// seal records the set's size once it is complete.
func (s *crashSet) seal() {
	for _, w := range s.words {
		s.count += bits.OnesCount64(w)
	}
}

// Crashed implements FailurePlan.
func (s *crashSet) Crashed(a, round int) bool {
	return round >= s.round && s.has(a)
}

// NextCrashChange implements CrashBoundary: the set goes down at the
// plan's round and never changes again.
func (s *crashSet) NextCrashChange(g int) int {
	if g <= s.round {
		return s.round
	}
	return -1
}

// NumCrashed reports the size of the crash set.
func (s *crashSet) NumCrashed() int { return s.count }

// CrashAt fails a fixed set of agents from a given round onward.
type CrashAt struct{ crashSet }

// NewCrashAt builds a CrashAt plan that takes the listed agents down from
// the given round on; a repeated id counts once. The set spans ids up to
// the largest listed one, which must not be negative.
func NewCrashAt(round int, agents ...int) *CrashAt {
	n := 0
	for _, a := range agents {
		if a < 0 {
			panic(fmt.Sprintf("sim: crashed agent id %d is negative", a))
		}
		n = max(n, a+1)
	}
	c := &CrashAt{newCrashSet(n, round)}
	for _, a := range agents {
		c.set(a)
	}
	c.seal()
	return c
}

// RandomCrashes fails each agent independently with a fixed probability,
// deciding once per agent at a given round (initial crash faults from the
// broadcast literature when that round is 0).
type RandomCrashes struct{ crashSet }

// NewRandomCrashes samples the crash set: each of the n agents except the
// protected ones crashes with probability p at the given round, using r.
// Agents are drawn in id order and protected ones consume no draw.
func NewRandomCrashes(n int, p float64, round int, r *rng.RNG, protected ...int) *RandomCrashes {
	checkCrashProb(p)
	keep := newCrashSet(n, 0)
	for _, a := range protected {
		if uint(a) < uint(n) {
			keep.set(a)
		}
	}
	c := &RandomCrashes{newCrashSet(n, round)}
	for a := 0; a < n; a++ {
		if !keep.has(a) && r.Bernoulli(p) {
			c.set(a)
		}
	}
	c.seal()
	return c
}

// NewRandomCrashesKeyed samples the crash set from the run key's crash
// stream: agent a crashes iff its addressed draw clears the Bernoulli(p)
// threshold. The plan is a pure function of (key, p, round, protected) —
// enabling or resizing it draws nothing from any simulation stream, unlike
// the sequential NewRandomCrashes, whose RNG must be provisioned by the
// caller.
func NewRandomCrashesKeyed(n int, p float64, round int, key rng.Key, protected ...int) *RandomCrashes {
	checkCrashProb(p)
	thresh := channel.FlipThreshold53(p)
	cell := key.Cell(rng.StreamCrash, 0)
	c := &RandomCrashes{newCrashSet(n, round)}
	// One set word per batch of 64 addressed draws. Both x>>11 and thresh
	// are at most 2⁵³, so x>>11 − thresh wraps to a word with its top bit
	// set exactly when x>>11 < thresh.
	var buf [64]uint64
	for w := range c.words {
		batch := buf[:min(64, n-64*w)]
		cell.Fill(batch, uint64(64*w))
		var word uint64
		for i, x := range batch {
			word |= (x>>11 - thresh) >> 63 << i
		}
		c.words[w] = word
	}
	for _, a := range protected {
		c.clear(a)
	}
	c.seal()
	return c
}

func checkCrashProb(p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sim: crash probability %v outside [0,1]", p))
	}
}

var (
	_ FailurePlan   = (*CrashAt)(nil)
	_ FailurePlan   = (*RandomCrashes)(nil)
	_ CrashBoundary = (*CrashAt)(nil)
	_ CrashBoundary = (*RandomCrashes)(nil)
)
