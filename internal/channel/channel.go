// Package channel models the noisy communication medium of the Flip model
// (paper §1.3.2): every transmitted bit is flipped independently with
// probability at most 1/2 − ε.
//
// The interface is deliberately tiny — a channel sees one bit per message
// and returns the possibly corrupted bit — so the simulation engine stays
// agnostic of the noise distribution. Implementations cover the exact
// worst case the theorems assume (BSC with flip probability exactly
// 1/2 − ε), the literal model statement ("at most 1/2 − ε", heterogeneous
// per message), and a noiseless control.
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

// Channel corrupts a transmitted bit. Implementations must be
// deterministic given the supplied RNG stream.
type Channel interface {
	// Transmit returns the bit the receiver observes when b is sent.
	Transmit(b Bit, r *rng.RNG) Bit
	// FlipProb reports the maximum per-message flip probability, i.e.
	// 1/2 − ε for the model's ε.
	FlipProb() float64
	// Name identifies the channel in traces and experiment tables.
	Name() string
}

// UniformNoise is an optional capability: channels whose noise is a single
// bit-symmetric flip probability, identical for every message. The batched
// dense kernel uses it to co-sample collision resolution and noise from
// one integer draw; channels with per-message noise (Heterogeneous) or
// side effects (Counting) do not implement it and take the per-message
// path instead.
type UniformNoise interface {
	// UniformFlipProb returns the exact per-message flip probability.
	UniformFlipProb() float64
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

// Transmit implements Channel.
func (c *BSC) Transmit(b Bit, r *rng.RNG) Bit {
	if r.Bernoulli(c.p) {
		return b.Flip()
	}
	return b
}

// UniformFlipProb implements UniformNoise.
func (c *BSC) UniformFlipProb() float64 { return c.p }

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

// FlipProb implements Channel.
func (c *BSC) FlipProb() float64 { return c.p }

// Epsilon returns the model parameter ε = 1/2 − p.
func (c *BSC) Epsilon() float64 { return 0.5 - c.p }

// Name implements Channel.
func (c *BSC) Name() string { return fmt.Sprintf("bsc(p=%.4g)", c.p) }

// Noiseless never corrupts messages (ε = 1/2). Used as a control: with it,
// broadcast is trivial and the baselines behave as classical rumor
// spreading.
type Noiseless struct{}

// Transmit implements Channel.
//
//breathe:drawfree
func (Noiseless) Transmit(b Bit, _ *rng.RNG) Bit { return b }

// UniformFlipProb implements UniformNoise.
func (Noiseless) UniformFlipProb() float64 { return 0 }

// FlipProb implements Channel.
func (Noiseless) FlipProb() float64 { return 0 }

// Name implements Channel.
func (Noiseless) Name() string { return "noiseless" }

// Heterogeneous flips each message with its own probability drawn
// uniformly from [lo, hi], matching the model's literal statement that the
// flip probability is "at most 1/2 − ε" rather than exactly it. hi plays
// the role of 1/2 − ε.
type Heterogeneous struct {
	lo, hi float64
}

// NewHeterogeneous returns a channel whose per-message flip probability is
// uniform in [lo, hi], 0 ≤ lo ≤ hi < 1/2.
func NewHeterogeneous(lo, hi float64) *Heterogeneous {
	if !(0 <= lo && lo <= hi && hi < 0.5) {
		panic(fmt.Sprintf("channel: invalid heterogeneous range [%v, %v]", lo, hi))
	}
	return &Heterogeneous{lo: lo, hi: hi}
}

// Transmit implements Channel.
func (c *Heterogeneous) Transmit(b Bit, r *rng.RNG) Bit {
	p := c.lo + (c.hi-c.lo)*r.Float64()
	if r.Bernoulli(p) {
		return b.Flip()
	}
	return b
}

// FlipProb implements Channel.
func (c *Heterogeneous) FlipProb() float64 { return c.hi }

// Name implements Channel.
func (c *Heterogeneous) Name() string {
	return fmt.Sprintf("heterogeneous(p in [%.4g, %.4g])", c.lo, c.hi)
}

// Counting wraps a channel and counts transmissions and flips. Experiment
// harnesses use it to report realized noise rates.
type Counting struct {
	Inner Channel

	transmitted int64
	flipped     int64
}

// NewCounting wraps inner with flip accounting.
func NewCounting(inner Channel) *Counting { return &Counting{Inner: inner} }

// Transmit implements Channel.
func (c *Counting) Transmit(b Bit, r *rng.RNG) Bit {
	out := c.Inner.Transmit(b, r)
	c.transmitted++
	if out != b {
		c.flipped++
	}
	return out
}

// FlipProb implements Channel.
func (c *Counting) FlipProb() float64 { return c.Inner.FlipProb() }

// Name implements Channel.
func (c *Counting) Name() string { return "counting(" + c.Inner.Name() + ")" }

// Transmitted reports how many messages passed through the channel.
func (c *Counting) Transmitted() int64 { return c.transmitted }

// Flipped reports how many messages were corrupted.
func (c *Counting) Flipped() int64 { return c.flipped }

// ObservedFlipRate reports the realized fraction of corrupted messages,
// or 0 if nothing was transmitted.
func (c *Counting) ObservedFlipRate() float64 {
	if c.transmitted == 0 {
		return 0
	}
	return float64(c.flipped) / float64(c.transmitted)
}

// Verify interface compliance.
var (
	_ Channel      = (*BSC)(nil)
	_ Channel      = Noiseless{}
	_ Channel      = (*Heterogeneous)(nil)
	_ Channel      = (*Counting)(nil)
	_ UniformNoise = (*BSC)(nil)
	_ UniformNoise = Noiseless{}
)
