// Package breathe is a Go implementation of the noisy information
// dissemination protocols of Feinerman, Haeupler and Korman, "Breathe
// before Speaking: Efficient Information Dissemination despite Noisy,
// Limited and Anonymous Communication" (PODC 2014).
//
// The model ("Flip model"): n anonymous agents communicate in synchronous
// rounds by push gossip — an agent may send a single-bit message to a
// uniformly random other agent; a receiver accepts one message per round;
// every bit is flipped independently with probability at most 1/2 − ε.
//
// The package solves two problems w.h.p. in O(log n/ε²) rounds and
// O(n·log n/ε²) total messages (both asymptotically optimal):
//
//   - Broadcast: one source knows the correct opinion; all agents must
//     adopt it.
//   - MajorityConsensus: an initial set A of opinionated agents with
//     majority-bias Ω(√(log n/|A|)); all agents must adopt A's majority.
//
// BroadcastAsync removes the global-clock assumption (paper §3) at an
// additive O(log² n) round cost.
//
// Quick start:
//
//	res, err := breathe.Broadcast(breathe.Config{N: 4096, Epsilon: 0.3, Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res.Unanimous, res.Rounds, res.Messages)
package breathe

import (
	"fmt"
	"math"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

// Opinion is one of the two abstract opinions agents disseminate.
type Opinion uint8

const (
	// OpinionZero is opinion 0.
	OpinionZero Opinion = 0
	// OpinionOne is opinion 1 (the default correct opinion).
	OpinionOne Opinion = 1
)

func (o Opinion) bit() channel.Bit { return channel.Bit(o & 1) }

// SyncMode selects the synchronization assumption for BroadcastAsync.
type SyncMode int

const (
	// SyncKnownOffsets assumes clocks differ by at most a known bound D
	// (paper §3.1); offsets are drawn uniformly in [0, D).
	SyncKnownOffsets SyncMode = iota + 1
	// SyncSelfStabilizing assumes nothing: an activation phase
	// synchronizes clocks to within D = O(log n) first (paper §3.2).
	SyncSelfStabilizing
)

// Config assembles a protocol run. N and Epsilon are required; the rest
// have sensible defaults.
type Config struct {
	// N is the population size (≥ 2).
	N int
	// Epsilon is the channel parameter ε ∈ (0, 1/2]: bits flip with
	// probability 1/2 − ε. Epsilon = 0.5 means a noiseless channel.
	Epsilon float64
	// Seed fixes all randomness; runs are reproducible bit for bit.
	Seed uint64
	// Target is the correct opinion B (default OpinionOne).
	Target Opinion
	// Params optionally overrides the derived protocol parameters (for
	// ablations); its N must equal N. Nil uses core.DefaultParams(N,
	// Epsilon).
	Params *core.Params
	// FlipProb optionally sets the actual channel flip probability; the
	// default is the worst case 1/2 − ε. It must not exceed 1/2 − ε.
	FlipProb *float64
	// Mode selects the synchronization setting for BroadcastAsync
	// (default SyncKnownOffsets).
	Mode SyncMode
	// D is the clock-offset bound for SyncKnownOffsets (default
	// 2·⌈log₂ n⌉, the bound §3.2's synchronizer achieves).
	D int
}

func (c Config) params() (core.Params, error) {
	if c.N < 2 {
		return core.Params{}, fmt.Errorf("breathe: N = %d, need at least 2", c.N)
	}
	if !(0 < c.Epsilon && c.Epsilon <= 0.5) || 0.5-c.Epsilon == 0.5 {
		return core.Params{}, fmt.Errorf("breathe: Epsilon = %v outside (0, 0.5], or so small that 1/2 − ε rounds to 1/2", c.Epsilon)
	}
	if c.Params != nil {
		if err := c.Params.Validate(); err != nil {
			return core.Params{}, err
		}
		if c.Params.N != c.N {
			return core.Params{}, fmt.Errorf("breathe: Params derived for N = %d, run has N = %d", c.Params.N, c.N)
		}
		return *c.Params, nil
	}
	return core.ParamsFor(c.N, c.Epsilon, core.DefaultConstants)
}

func (c Config) channel() (*channel.BSC, error) {
	maxFlip := 0.5 - c.Epsilon
	p := maxFlip
	if c.FlipProb != nil {
		p = *c.FlipProb
		if !(0 <= p && p <= maxFlip) {
			return nil, fmt.Errorf("breathe: FlipProb %v outside [0, 1/2−ε] = [0, %v]", p, maxFlip)
		}
	}
	return channel.NewBSC(p), nil
}

func (c Config) defaultD() int {
	if c.D > 0 {
		return c.D
	}
	return 2 * int(math.Ceil(math.Log2(float64(c.N))))
}

// Result reports the outcome of a run.
type Result struct {
	// Rounds is the number of executed rounds.
	Rounds int
	// Messages is the total number of (single-bit) messages pushed.
	Messages int64
	// CorrectFraction is the fraction of agents holding the target
	// opinion at the end.
	CorrectFraction float64
	// Unanimous reports whether every agent holds the target opinion —
	// the protocols' success criterion.
	Unanimous bool
	// Undecided counts agents that never formed an opinion.
	Undecided int
	// Telemetry carries per-phase internals (nil for async runs, which
	// report Stage II statistics only).
	Telemetry *core.Telemetry
}

func fromSim(res sim.Result, target channel.Bit) Result {
	return Result{
		Rounds:          res.Rounds,
		Messages:        res.MessagesSent,
		CorrectFraction: res.CorrectFraction(target),
		Unanimous:       res.AllCorrect(target),
		Undecided:       res.Undecided,
	}
}

// Broadcast runs the noisy broadcast protocol in the fully-synchronous
// setting (paper Section 2, Theorem 2.17).
func Broadcast(cfg Config) (Result, error) {
	params, err := cfg.params()
	if err != nil {
		return Result{}, err
	}
	ch, err := cfg.channel()
	if err != nil {
		return Result{}, err
	}
	proto, err := core.NewBroadcast(params, cfg.Target.bit())
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(sim.Config{N: cfg.N, Channel: ch, Seed: cfg.Seed}, proto)
	if err != nil {
		return Result{}, err
	}
	out := fromSim(res, cfg.Target.bit())
	out.Telemetry = proto.Telemetry()
	return out, nil
}

// MajorityConsensus runs the noisy majority-consensus protocol (paper
// Corollary 2.18): correctA agents start with the target opinion, wrongA
// with the other one, and the whole population must converge to the
// majority. For the w.h.p. guarantee the paper requires
// |A| = correctA + wrongA = Ω(log n/ε²) and majority-bias
// (correctA − wrongA)/(2|A|) = Ω(√(log n/|A|)).
func MajorityConsensus(cfg Config, correctA, wrongA int) (Result, error) {
	params, err := cfg.params()
	if err != nil {
		return Result{}, err
	}
	ch, err := cfg.channel()
	if err != nil {
		return Result{}, err
	}
	proto, err := core.NewConsensus(params, cfg.Target.bit(), correctA, wrongA)
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(sim.Config{N: cfg.N, Channel: ch, Seed: cfg.Seed}, proto)
	if err != nil {
		return Result{}, err
	}
	out := fromSim(res, cfg.Target.bit())
	out.Telemetry = proto.Telemetry()
	return out, nil
}

// MajorityConsensusAsync runs the majority-consensus protocol without a
// global clock (clocks offset by up to Config.D, paper §3.1 applied to
// Corollary 2.18).
func MajorityConsensusAsync(cfg Config, correctA, wrongA int) (Result, error) {
	params, err := cfg.params()
	if err != nil {
		return Result{}, err
	}
	ch, err := cfg.channel()
	if err != nil {
		return Result{}, err
	}
	if cfg.Mode == SyncSelfStabilizing {
		return Result{}, fmt.Errorf("breathe: self-stabilizing consensus is not implemented; use SyncKnownOffsets")
	}
	proto, err := async.NewKnownOffsetsConsensus(params, cfg.Target.bit(), correctA, wrongA, cfg.defaultD())
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(sim.Config{N: cfg.N, Channel: ch, Seed: cfg.Seed}, proto)
	if err != nil {
		return Result{}, err
	}
	return fromSim(res, cfg.Target.bit()), nil
}

// BroadcastAsync runs the broadcast protocol without a global clock
// (paper Section 3, Theorem 3.1): O(log n/ε² + log² n) rounds, the same
// message complexity.
func BroadcastAsync(cfg Config) (Result, error) {
	params, err := cfg.params()
	if err != nil {
		return Result{}, err
	}
	ch, err := cfg.channel()
	if err != nil {
		return Result{}, err
	}
	var proto *async.Protocol
	switch cfg.Mode {
	case SyncSelfStabilizing:
		prelude := 3 * int(math.Ceil(math.Log2(float64(cfg.N))))
		proto, err = async.NewSelfSync(params, cfg.Target.bit(), prelude)
	case SyncKnownOffsets, 0:
		proto, err = async.NewKnownOffsets(params, cfg.Target.bit(), cfg.defaultD())
	default:
		return Result{}, fmt.Errorf("breathe: unknown sync mode %d", cfg.Mode)
	}
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(sim.Config{N: cfg.N, Channel: ch, Seed: cfg.Seed}, proto)
	if err != nil {
		return Result{}, err
	}
	return fromSim(res, cfg.Target.bit()), nil
}
