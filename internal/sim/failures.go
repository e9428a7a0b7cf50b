package sim

import (
	"fmt"
	"math/bits"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// CrashPlan injects crash faults: a crashed agent neither sends nor
// receives from the plan's round on. Used by robustness runs; the paper's
// model itself has no crashes.
//
// The plan is a set of agent ids packed one bit per id, its size and the
// round from which its agents are down. It costs n/8 bytes for ids below
// n, answers each query in O(1), and lets the kernel's crash passes test
// 64 agents per word. It is read-only once built, so the sharded kernel's
// workers read it concurrently without a lock.
type CrashPlan struct {
	words []uint64
	count int
	round int
}

// newCrashPlan returns an empty plan with room for ids in [0, n).
func newCrashPlan(n, round int) *CrashPlan {
	return &CrashPlan{words: make([]uint64, (n+63)/64), round: round}
}

// has reports whether agent a is in the set; ids outside it (negative ones
// included, which wrap to huge unsigned words) are not.
func (c *CrashPlan) has(a int) bool { return crashBit(c.words, uint(a)) != 0 }

// set adds agent a, which must lie inside the set's range.
func (c *CrashPlan) set(a int) { c.words[a>>6] |= 1 << (a & 63) }

// clear removes agent a from the set if a lies inside its range.
func (c *CrashPlan) clear(a int) {
	if w := uint(a) >> 6; w < uint(len(c.words)) {
		c.words[w] &^= 1 << (uint(a) & 63)
	}
}

// seal records the set's size once it is complete.
func (c *CrashPlan) seal() {
	for _, w := range c.words {
		c.count += bits.OnesCount64(w)
	}
}

// Crashed reports whether agent a is down in the given round.
func (c *CrashPlan) Crashed(a, round int) bool {
	return round >= c.round && c.has(a)
}

// NumCrashed reports the size of the crash set; a nil plan crashes none.
func (c *CrashPlan) NumCrashed() int {
	if c == nil {
		return 0
	}
	return c.count
}

// NewCrashAt builds a plan that takes the listed agents down from the
// given round on; a repeated id counts once. The set spans ids up to the
// largest listed one, which must not be negative; ids past it stay live.
func NewCrashAt(round int, agents ...int) *CrashPlan {
	n := 0
	for _, a := range agents {
		if a < 0 {
			panic(fmt.Sprintf("sim: crashed agent id %d is negative", a))
		}
		n = max(n, a+1)
	}
	c := newCrashPlan(n, round)
	for _, a := range agents {
		c.set(a)
	}
	c.seal()
	return c
}

// NewRandomCrashes samples a plan that fails each agent independently
// with probability p from the given round on (initial crash faults from
// the broadcast literature when that round is 0). Each of the n agents
// except the protected ones crashes iff its addressed draw in the run
// key's crash stream clears the Bernoulli(p) threshold, so the plan is a
// pure function of (key, p, round, protected): enabling or resizing it
// draws nothing from any simulation stream.
func NewRandomCrashes(n int, p float64, round int, key rng.Key, protected ...int) *CrashPlan {
	if !(0 <= p && p <= 1) {
		panic(fmt.Sprintf("sim: crash probability %v outside [0,1]", p))
	}
	thresh := channel.FlipThreshold53(p)
	cell := key.Cell(rng.StreamCrash, 0)
	c := newCrashPlan(n, round)
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

// activeWords returns the plan's set words when it has agents down at
// round, and nil otherwise: the kernel's crash passes run only on a
// non-nil result, so the round test is made once per round, not once per
// agent. Ids at or past 64·len(words) are live.
func (c *CrashPlan) activeWords(round int) []uint64 {
	if c == nil || round < c.round || c.count == 0 {
		return nil
	}
	return c.words
}

// crashBit is 1 when the set words hold agent a and 0 otherwise; ids past
// the words are live.
//
//breathe:leaf inlined into every crash pass
func crashBit(words []uint64, a uint) uint64 {
	var bit uint64
	if w := a >> 6; w < uint(len(words)) {
		bit = words[w] >> (a & 63) & 1
	}
	return bit
}
