// Package core implements the paper's primary contribution: the two-stage
// noisy-broadcast protocol (Section 2) and the noisy majority-consensus
// protocol (Corollary 2.18) for the Flip model.
//
// Stage I ("breathe") spreads the source's opinion in layers: an agent
// first contacted in phase i stays silent for the rest of phase i, adopts
// a uniformly random message it heard during the phase, and only starts
// transmitting in phase i+1. Phase lengths are chosen so that the layer
// population grows by a factor β+1 = Ω(1/ε²) per phase while the layer
// bias decays by only a factor 2ε, so the aggregate signal strengthens.
// Stage II ("speak") boosts the resulting Ω(√(log n / n)) bias to
// unanimity by O(log n) phases of majority voting over γ = Θ(1/ε²) noisy
// samples, with a final confirmation phase of Θ(log n/ε²) samples.
package core

import (
	"fmt"
	"math"
)

// Params fixes every phase length of the protocol. Obtain one from
// DefaultParams (calibrated constants; what the benchmarks use) or
// PaperParams (the proof's constants, impractically large but preserved
// for reference), or fill the fields directly for ablations.
//
// Notation follows Section 2: phase 0 lasts BetaS rounds, phases 1..T
// last Beta rounds each, phase T+1 lasts BetaF rounds; Stage II has K
// phases of 2·Gamma rounds and a final phase of MFinal rounds.
type Params struct {
	// N is the population size the parameters were derived for.
	N int
	// Eps is the channel parameter ε (flip probability ≤ 1/2 − ε).
	Eps float64

	// BetaS is the length of Stage I phase 0 (β_s = s·log n, source only).
	BetaS int
	// Beta is the length of each Stage I phase 1..T.
	Beta int
	// T is the number of intermediate Stage I phases.
	T int
	// BetaF is the length of Stage I phase T+1 (β_f = f·log n).
	BetaF int

	// Gamma is the (odd) number of samples whose majority an agent adopts
	// in each of the first K Stage II phases; the phase lasts 2·Gamma
	// rounds (paper: γ = 2r+1, phase length 2γ).
	Gamma int
	// K is the number of Stage II boosting phases.
	K int
	// GammaFinal is the (odd) sample-subset size of the final Stage II
	// phase; the phase lasts MFinal = 2·GammaFinal rounds and drives the
	// constant bias to unanimity w.h.p.
	GammaFinal int
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.N < 2:
		return fmt.Errorf("core: population %d < 2", p.N)
	case !(0 < p.Eps && p.Eps <= 0.5):
		return fmt.Errorf("core: epsilon %v outside (0, 0.5]", p.Eps)
	case p.BetaS < 1:
		return fmt.Errorf("core: BetaS %d < 1", p.BetaS)
	case p.T < 0:
		return fmt.Errorf("core: T %d < 0", p.T)
	case p.T > 0 && p.Beta < 1:
		return fmt.Errorf("core: Beta %d < 1 with T = %d", p.Beta, p.T)
	case p.BetaF < 1:
		return fmt.Errorf("core: BetaF %d < 1", p.BetaF)
	case p.Gamma < 1 || p.Gamma%2 == 0:
		return fmt.Errorf("core: Gamma %d must be odd and positive", p.Gamma)
	case p.K < 0:
		return fmt.Errorf("core: K %d < 0", p.K)
	case p.GammaFinal < 1 || p.GammaFinal%2 == 0:
		return fmt.Errorf("core: GammaFinal %d must be odd and positive", p.GammaFinal)
	}
	return nil
}

// MFinal is the length in rounds of the last Stage II phase.
func (p Params) MFinal() int { return 2 * p.GammaFinal }

// StageIRounds is the total length of Stage I.
func (p Params) StageIRounds() int { return p.BetaS + p.T*p.Beta + p.BetaF }

// StageIIRounds is the total length of Stage II.
func (p Params) StageIIRounds() int { return p.K*2*p.Gamma + p.MFinal() }

// TotalRounds is the full protocol length.
func (p Params) TotalRounds() int { return p.StageIRounds() + p.StageIIRounds() }

// MemoryBits returns the number of state bits a single agent needs to run
// the protocol, substantiating the paper's O(log log n + log(1/ε)) claim
// (§1.5): a phase counter over O(log n) phases, message counters bounded
// by the longest phase O(log n / ε²), one opinion bit and one activation
// bit.
func (p Params) MemoryBits() int {
	phases := p.T + 2 + p.K + 1
	longest := p.BetaS
	for _, v := range []int{p.Beta, p.BetaF, 2 * p.Gamma, p.MFinal()} {
		if v > longest {
			longest = v
		}
	}
	bitsFor := func(v int) int {
		if v <= 1 {
			return 1
		}
		return int(math.Ceil(math.Log2(float64(v + 1))))
	}
	// phase index + round-within-phase + two message counters + opinion
	// + activation flag.
	return bitsFor(phases) + bitsFor(longest) + 2*bitsFor(longest) + 1 + 1
}

// Constants govern how DefaultParams scales each phase. All values are
// multiples of 1/ε² (and of log₂ n where the paper has a log n factor).
// They were calibrated empirically (see core tests and EXPERIMENTS.md):
// the proofs' constants are astronomically conservative, which the paper
// acknowledges ("no attempt has been made to minimize the constant
// factors").
type Constants struct {
	S     float64 // phase 0: BetaS = S/ε² · log₂ n
	B     float64 // phases 1..T: Beta = B/ε²
	F     float64 // phase T+1: BetaF = F/ε² · log₂ n
	R     float64 // Stage II: Gamma = 2·⌈R/ε²⌉+1
	Fin   float64 // final phase: GammaFinal ≈ Fin/ε² · log₂ n (odd)
	Amp   float64 // assumed per-phase Stage II amplification when sizing K
	Delta float64 // assumed post-Stage-I bias is Delta·√(log₂ n / n)
}

// DefaultConstants is the calibrated configuration used by DefaultParams.
var DefaultConstants = Constants{
	S:     2.0,
	B:     3.0,
	F:     2.0,
	R:     2.0,
	Fin:   1.0,
	Amp:   1.5,
	Delta: 0.4,
}

// PaperConstants preserves the constants appearing in the paper's proofs.
// r = 2²²/ε² (Stage II) makes runs infeasible for any interesting n; the
// value exists so the reproduction states the original protocol exactly.
var PaperConstants = Constants{
	S:     48, // Claim 2.2 needs s ≫ 1/ε²; 48 reflects the e^{−ε²·Y₀/8} ≤ n⁻³ requirement at Y₀ = (s/3)·log n
	B:     144,
	F:     288,
	R:     1 << 22, // r = ⌈2²²/ε²⌉, §2.2.2
	Fin:   1 << 10,
	Amp:   1.7, // Lemma 2.14
	Delta: 1.0,
}

// DefaultParams derives calibrated parameters for population n and channel
// parameter eps per Section 2's schedule.
func DefaultParams(n int, eps float64) Params {
	return NewParams(n, eps, DefaultConstants)
}

// PaperParams derives parameters with the proofs' constants. Only tiny n
// are remotely runnable; provided for reference and unit tests of the
// schedule arithmetic.
func PaperParams(n int, eps float64) Params {
	return NewParams(n, eps, PaperConstants)
}

// maxPhaseRounds bounds every phase length ParamsFor derives (2⁵¹ with a
// 64-bit int): the float-to-int conversions stay exact, and TotalRounds —
// doubled lengths, summed with multipliers T and K far below 2⁹ — cannot
// overflow int.
const maxPhaseRounds = math.MaxInt >> 12

// NewParams derives a full parameter set for (n, eps) from scaling
// constants, following the schedule of §2.1.2 and §2.2.2. It panics where
// ParamsFor returns an error.
func NewParams(n int, eps float64, c Constants) Params {
	p, err := ParamsFor(n, eps, c)
	if err != nil {
		panic(err)
	}
	return p
}

// ParamsFor is NewParams for untrusted input: it rejects n < 2, eps
// outside (0, 0.5] (NaN included) and an eps so small that a phase would
// exceed maxPhaseRounds.
func ParamsFor(n int, eps float64, c Constants) (Params, error) {
	if n < 2 {
		return Params{}, fmt.Errorf("core: population %d < 2", n)
	}
	if !(0 < eps && eps <= 0.5) {
		return Params{}, fmt.Errorf("core: epsilon %v outside (0, 0.5]", eps)
	}
	log2n := math.Log2(float64(n))
	if log2n < 1 {
		log2n = 1
	}
	inv := 1 / (eps * eps)
	for _, x := range []float64{c.S * inv * log2n, c.B * inv, c.F * inv * log2n, c.R * inv, c.Fin * inv * log2n} {
		if !(x <= maxPhaseRounds) {
			return Params{}, fmt.Errorf("core: eps = %v needs a phase of %.3g rounds (limit %d)", eps, x, maxPhaseRounds)
		}
	}

	betaS := ceilAtLeast(c.S*inv*log2n, 1)
	beta := ceilAtLeast(c.B*inv, 1)

	// T = ⌊log(n/2βs) / log(β+1)⌋, clamped to be nonnegative.
	t := 0
	if ratio := float64(n) / (2 * float64(betaS)); ratio > 1 {
		t = int(math.Floor(math.Log(ratio) / math.Log(float64(beta)+1)))
		if t < 0 {
			t = 0
		}
	}

	betaF := ceilAtLeast(c.F*inv*log2n, 1)

	r := ceilAtLeast(c.R*inv, 1)
	gamma := 2*r + 1

	// K: number of doubling phases needed to grow the assumed post-Stage-I
	// bias Delta·√(log n / n) to a constant, at Amp per phase, plus slack.
	delta1 := c.Delta * math.Sqrt(log2n/float64(n))
	k := 0
	if delta1 < 0.2 {
		k = int(math.Ceil(math.Log(0.2/delta1)/math.Log(c.Amp))) + 2
	}

	gammaFinal := oddCeil(c.Fin * inv * log2n)

	return Params{
		N:          n,
		Eps:        eps,
		BetaS:      betaS,
		Beta:       beta,
		T:          t,
		BetaF:      betaF,
		Gamma:      gamma,
		K:          k,
		GammaFinal: gammaFinal,
	}, nil
}

func ceilAtLeast(x float64, min int) int {
	v := int(math.Ceil(x))
	if v < min {
		return min
	}
	return v
}

// oddCeil rounds x up to the nearest odd integer >= 1.
func oddCeil(x float64) int {
	v := int(math.Ceil(x))
	if v < 1 {
		v = 1
	}
	if v%2 == 0 {
		v++
	}
	return v
}

// StartPhaseForConsensus returns i_A, the Stage I phase from which the
// majority-consensus protocol starts (Corollary 2.18): the phase whose
// expected activated-population size matches |A|. Clamped to [1, T+1].
func (p Params) StartPhaseForConsensus(sizeA int) int {
	if sizeA < 1 {
		panic(fmt.Sprintf("core: StartPhaseForConsensus with |A| = %d", sizeA))
	}
	ratio := float64(sizeA) / float64(p.BetaS)
	i := 1
	if ratio > 1 && p.Beta > 0 {
		i = 1 + int(math.Floor(math.Log(ratio)/math.Log(float64(p.Beta)+1)))
	}
	if i < 1 {
		i = 1
	}
	if i > p.T+1 {
		i = p.T + 1
	}
	return i
}
