package baseline

import (
	"fmt"
	"math"

	"breathe/internal/rng"
	"breathe/internal/stats"
)

// DirectSource models the §1.4 lower-bound scenario: every agent receives
// one independent noisy sample of the source's opinion per round, as if
// the source could address all n agents simultaneously. No push-gossip
// mechanics apply; this is strictly more informative than anything the
// Flip model permits, so its round count lower-bounds every protocol.

// DirectSourceErrProb returns the probability that a single agent decides
// wrongly after m majority-combined samples through a BSC(1/2−eps)
// channel (m odd recommended; even m counts ties as errors, a
// conservative convention).
func DirectSourceErrProb(m int, eps float64) float64 {
	if m < 1 {
		panic(fmt.Sprintf("baseline: DirectSourceErrProb with m = %d", m))
	}
	q := 0.5 + eps // per-sample probability of being correct
	if m%2 == 1 {
		return 1 - stats.MajoritySuccessProb(m, q)
	}
	// Even m: correct iff strictly more than m/2 samples correct.
	return 1 - stats.BinomialTailGE(m, m/2+1, q)
}

// DirectSourceRoundsNeeded returns the smallest odd m such that a union
// bound over n agents keeps the overall failure probability at most
// failProb: n · Pr(agent wrong after m samples) ≤ failProb. This is the
// Θ(log n/ε²) yardstick of §1.4 in explicit form.
func DirectSourceRoundsNeeded(n int, eps, failProb float64) int {
	if n < 1 || failProb <= 0 || failProb >= 1 {
		panic(fmt.Sprintf("baseline: invalid DirectSourceRoundsNeeded(%d, %v, %v)", n, eps, failProb))
	}
	per := failProb / float64(n)
	for m := 1; ; m += 2 {
		if DirectSourceErrProb(m, eps) <= per {
			return m
		}
		if m > 1<<26 {
			panic("baseline: DirectSourceRoundsNeeded diverged")
		}
	}
}

// DirectSourceLowerBound returns the information-theoretic Ω(log n/ε²)
// floor in convenient closed form: ln(n/failProb) / (2ε²), the number of
// BSC uses below which even an optimal decoder must fail with probability
// over failProb for some agent (a standard Chernoff–Stein style bound;
// used as the "as if informed directly" reference line in E10).
func DirectSourceLowerBound(n int, eps, failProb float64) float64 {
	return math.Log(float64(n)/failProb) / (2 * eps * eps)
}

// SimulateDirectSource draws m noisy samples for each of n agents and
// reports the fraction of agents whose sample-majority is correct. Agent
// a's correct-sample count is one binomial from a generator seeded with
// word a of key's StreamDirectSource cell m, so runs at different sample
// counts under one key draw independently.
func SimulateDirectSource(n, m int, eps float64, key rng.Key) float64 {
	if n < 1 || m < 1 {
		panic(fmt.Sprintf("baseline: SimulateDirectSource(%d, %d)", n, m))
	}
	q := 0.5 + eps
	cell := key.Cell(rng.StreamDirectSource, uint64(m))
	var r rng.RNG
	correct := 0
	for a := 0; a < n; a++ {
		r.Reseed(cell.Uint64(uint64(a)))
		if 2*r.Binomial(m, q) > m {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
