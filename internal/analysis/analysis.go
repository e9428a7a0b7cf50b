// Package analysis predicts a broadcast run from its parameters alone:
// the Stage I growth/bias recursions (§2.1.1) and the round and message
// complexity built on them. The activations are checked against
// simulation per Stage I phase (analysis_test.go), and the rounds and
// message count against a whole run (the root integration test).
package analysis

import (
	"math"

	"breathe/internal/core"
)

// PhasePrediction is the expected state after one Stage I phase.
type PhasePrediction struct {
	// Phase is the paper's phase index (0..T+1).
	Phase int
	// ExpectedActivated is E[X_i], from the recursion
	// X_i = X_{i−1} + Y_i with Y_i ≈ β·X_{i−1}·(1 − X/n) per round.
	ExpectedActivated float64
	// ExpectedNewly is E[Y_i].
	ExpectedNewly float64
	// ExpectedBias is the bias recursion value ε_i = (2ε)·ε_{i−1}
	// (ε₀ = ε/2 after phase 0, per Claim 2.2 — the paper tracks the
	// lower-bound branch ε_i ≥ ε^{i+1}/2).
	ExpectedBias float64
}

// PredictStageI iterates the expectation recursions of §2.1.1 for the
// given parameters and returns one prediction per phase 0..T+1.
//
// The recursion refines the proofs' worst-case bounds: per round of phase
// i every one of the currently activated agents sends one message, each
// activating a dormant agent with probability (#dormant/n)·(chance the
// recipient is not hit twice). We use the standard balls-in-bins
// expectation: r senders into n boxes activate
// dormant·(1 − (1−1/n)^r) new agents in expectation.
func PredictStageI(p core.Params) []PhasePrediction {
	n := float64(p.N)
	eps := p.Eps
	out := make([]PhasePrediction, 0, p.T+2)

	// Phase 0: βs rounds of a single sender. Expected activations follow
	// the coupon-collector expectation over βs single-ball throws.
	x := expectedActivations(1, float64(p.BetaS), 0, n)
	out = append(out, PhasePrediction{
		Phase:             0,
		ExpectedActivated: x,
		ExpectedNewly:     x,
		ExpectedBias:      eps / 2,
	})
	bias := eps / 2
	for i := 1; i <= p.T; i++ {
		y := expectedActivations(x, float64(p.Beta), x, n)
		bias *= 2 * eps
		x += y
		out = append(out, PhasePrediction{
			Phase:             i,
			ExpectedActivated: x,
			ExpectedNewly:     y,
			ExpectedBias:      bias,
		})
	}
	y := expectedActivations(x, float64(p.BetaF), x, n)
	bias *= 2 * eps
	x += y
	out = append(out, PhasePrediction{
		Phase:             p.T + 1,
		ExpectedActivated: x,
		ExpectedNewly:     y,
		ExpectedBias:      bias,
	})
	return out
}

// expectedActivations iterates, round by round, the expected number of
// newly activated agents when senders agents each push one message per
// round for rounds rounds, with alreadyActive agents activated at the
// start, in a population of n.
func expectedActivations(senders, rounds, alreadyActive, n float64) float64 {
	active := alreadyActive
	newly := 0.0
	for r := 0.0; r < rounds; r++ {
		dormant := n - active
		if dormant <= 0 {
			break
		}
		// senders balls into n−1 boxes each (no self-delivery); a dormant
		// box that receives ≥1 ball becomes active.
		pHit := 1 - math.Pow(1-1/(n-1), senders)
		got := dormant * pHit
		active += got
		newly += got
	}
	return newly
}

// --- complexity predictions (Theorem 2.17 / 3.1) ---

// Complexity summarizes predicted costs for a parameter set.
type Complexity struct {
	// Rounds is the exact scheduled round count.
	Rounds int
	// MessageUpperBound bounds total messages by n·rounds (every agent
	// sends at most one message per round).
	MessageUpperBound int64
	// MessageEstimate estimates realized messages: Stage I phases send
	// X_{i−1} per round, Stage II sends n per round.
	MessageEstimate float64
	// AsyncRounds is the §3.1 round count at D = 2·⌈log₂ n⌉.
	AsyncRounds int
}

// PredictComplexity computes cost predictions for p.
func PredictComplexity(p core.Params) Complexity {
	preds := PredictStageI(p)
	msgs := 1 * float64(p.BetaS) // phase 0: the source only
	x := preds[0].ExpectedActivated
	for i := 1; i <= p.T; i++ {
		msgs += (x + 1) * float64(p.Beta)
		x = preds[i].ExpectedActivated
	}
	msgs += (x + 1) * float64(p.BetaF)
	msgs += float64(p.N) * float64(p.StageIIRounds())

	rounds := p.TotalRounds()
	d := 2 * int(math.Ceil(math.Log2(float64(p.N))))
	phases := p.T + 2 + p.K + 1
	return Complexity{
		Rounds:            rounds,
		MessageUpperBound: int64(p.N) * int64(rounds),
		MessageEstimate:   msgs,
		AsyncRounds:       rounds + (phases-1)*d,
	}
}
