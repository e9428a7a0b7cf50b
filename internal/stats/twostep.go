package stats

import (
	"fmt"

	"breathe/internal/rng"
)

// TwoStepProcess is the "imaginary two-step process" from the proof of
// Lemma 2.11. Over γ Boolean players:
//
//  1. each player flips a fair coin to form an initial opinion;
//  2. independently with probability 2b, each wrong player corrects
//     itself (b = 2εδ).
//
// After the two steps each player is correct with probability exactly
// 1/2 + b, matching a noisy sample from a population of bias δ, so the
// probability that the majority of the γ players is correct equals the
// probability that the majority of γ real samples is correct. The struct
// exists so experiment E5 can measure both the real samples and the
// process and confirm they agree.
type TwoStepProcess struct {
	Gamma int     // number of players, must be odd and positive
	B     float64 // per-sample excess probability b = 2εδ, in [0, 1/2]
}

// NewTwoStepProcess validates parameters and returns the process.
func NewTwoStepProcess(gamma int, b float64) TwoStepProcess {
	if gamma <= 0 || gamma%2 == 0 {
		panic(fmt.Sprintf("stats: two-step process needs odd positive gamma, got %d", gamma))
	}
	if b < 0 || b > 0.5 {
		panic(fmt.Sprintf("stats: two-step process b %v outside [0, 0.5]", b))
	}
	return TwoStepProcess{Gamma: gamma, B: b}
}

// SuccessRate estimates the majority-correct probability over trials
// runs. Trial t draws its two binomials from a generator seeded with word
// t of key's StreamTwoStep cell, so the estimate is a pure function of
// (process, trials, key) and no trial's draws depend on another's.
func (p TwoStepProcess) SuccessRate(trials int, key rng.Key) float64 {
	cell := key.Cell(rng.StreamTwoStep, 0)
	var r rng.RNG
	ok := 0
	for t := 0; t < trials; t++ {
		r.Reseed(cell.Uint64(uint64(t)))
		wrong := r.Binomial(p.Gamma, 0.5)   // step 1: fair coins
		flipped := r.Binomial(wrong, 2*p.B) // step 2: corrections
		if wrong-flipped <= (p.Gamma-1)/2 { // correct players strictly > gamma/2
			ok++
		}
	}
	return float64(ok) / float64(trials)
}

// ExactSuccess computes the majority-correct probability of the process in
// closed form: the final number of wrong players is Binomial(γ, 1/2−b)
// because each player independently ends wrong with probability
// (1/2)(1−2b). Majority correct ⇔ wrong ≤ (γ−1)/2.
func (p TwoStepProcess) ExactSuccess() float64 {
	q := 0.5 + p.B // per-player probability of ending correct
	return MajoritySuccessProb(p.Gamma, q)
}
