// Package channel models the noisy communication medium of the Flip model
// (paper §1.3.2): every transmitted bit is flipped independently with
// probability at most 1/2 − ε.
//
// The medium is one binary symmetric channel, BSC: a single flip
// probability p for every message. That covers the model's whole range.
// The worst case the theorems assume is p = 1/2 − ε, and p = 0 is the
// noiseless control. A per-message flip probability drawn i.i.d. from
// [lo, hi] is, in law, exactly a BSC at (lo+hi)/2, so "at most 1/2 − ε"
// needs no channel of its own. The engine reads the flip probability
// (FlipProb) and draws the noise itself; Transmit is the per-message
// statement of the rule, which the test reference applies message by
// message.
package channel

import (
	"fmt"
	"math"

	"breathe/internal/rng"
)

// Bit is a single-bit message payload, the entire alphabet of the Flip
// model.
type Bit uint8

const (
	// Zero is the bit/opinion 0.
	Zero Bit = 0
	// One is the bit/opinion 1.
	One Bit = 1
)

// Flip returns the opposite bit.
func (b Bit) Flip() Bit { return b ^ 1 }

func (b Bit) String() string {
	if b == Zero {
		return "0"
	}
	return "1"
}

// BSC is the binary symmetric channel: every bit is flipped independently
// with probability exactly p. The paper's lower bounds are stated against
// this channel with p = 1/2 − ε; it is the worst case allowed by the model.
type BSC struct {
	p float64
}

// NewBSC returns a binary symmetric channel with flip probability p.
// p must lie in [0, 1/2).
func NewBSC(p float64) *BSC {
	if !(0 <= p && p < 0.5) {
		panic(fmt.Sprintf("channel: BSC flip probability %v outside [0, 0.5)", p))
	}
	return &BSC{p: p}
}

// FromEpsilon returns the worst-case channel for the Flip model with
// parameter ε: a BSC with flip probability 1/2 − ε. ε must lie in (0, 1/2].
func FromEpsilon(eps float64) *BSC {
	if !(0 < eps && eps <= 0.5) {
		panic(fmt.Sprintf("channel: epsilon %v outside (0, 0.5]", eps))
	}
	return NewBSC(0.5 - eps)
}

// Transmit returns the bit the receiver observes when b is sent, drawing
// the flip from r. At p = 0 it draws nothing.
func (c *BSC) Transmit(b Bit, r *rng.RNG) Bit {
	if r.Bernoulli(c.p) {
		return b.Flip()
	}
	return b
}

// FlipThreshold53 converts a flip probability to the 53-bit integer
// threshold t such that (Uint64()>>11) < t holds with exactly the
// probability Bernoulli(p) accepts: P = ⌈p·2⁵³⌉/2⁵³, which equals the law
// of Float64() < p because the mantissa draw takes integer multiples of
// 2⁻⁵³.
func FlipThreshold53(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// FlipProb returns the per-message flip probability p.
func (c *BSC) FlipProb() float64 { return c.p }

// Name identifies the channel in traces and experiment tables.
func (c *BSC) Name() string { return fmt.Sprintf("bsc(p=%.4g)", c.p) }
