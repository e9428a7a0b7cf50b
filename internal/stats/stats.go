// Package stats provides the probabilistic and statistical helpers the
// reproduction needs: exact binomial analytics for the majority-boost
// lemma (Lemma 2.11), confidence intervals for empirical success rates,
// streaming moments, and scaling-law fits used by the experiment shape
// checks.
package stats

import (
	"fmt"
	"math"
)

// logBinomial returns log C(n, k).
func logBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

// binomialPMF returns Pr(Binomial(n, p) = k).
func binomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(logBinomial(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
}

// BinomialTailGE returns Pr(Binomial(n, p) >= k) computed by direct
// summation (n is small in all protocol uses).
func BinomialTailGE(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += binomialPMF(n, i, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// MajoritySuccessProb returns the exact probability that the majority of
// gamma independent samples is correct when each sample is independently
// correct with probability q. gamma must be odd so no ties are possible.
//
// This is the quantity Lemma 2.11 lower-bounds by min(1/2+4δ, 1/2+1/100)
// with q = 1/2 + 2εδ.
func MajoritySuccessProb(gamma int, q float64) float64 {
	if gamma <= 0 || gamma%2 == 0 {
		panic(fmt.Sprintf("stats: MajoritySuccessProb needs odd positive gamma, got %d", gamma))
	}
	return BinomialTailGE(gamma, gamma/2+1, q)
}

// Lemma211Bound returns the paper's lower bound min(1/2+4δ, 1/2+1/100)
// on the majority success probability for population bias δ.
func Lemma211Bound(delta float64) float64 {
	b := 0.5 + 4*delta
	if cap := 0.5 + 1.0/100; b > cap {
		return cap
	}
	return b
}

// SampleCorrectProb returns the probability that a single noisy sample
// from a population with bias delta is correct when the channel flips with
// probability 1/2 − eps: (1/2+δ)(1/2+ε) + (1/2−δ)(1/2−ε) = 1/2 + 2εδ.
func SampleCorrectProb(delta, eps float64) float64 {
	return 0.5 + 2*eps*delta
}

// WilsonInterval returns the Wilson score interval for a Bernoulli
// proportion after successes out of trials at z standard errors
// (z = 1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// logFactorial returns log(k!) (small table + Stirling series).
func logFactorial(k int) float64 {
	if k < 0 {
		panic("stats: logFactorial of negative value")
	}
	if k < len(logFactTable) {
		return logFactTable[k]
	}
	x := float64(k + 1)
	return (x-0.5)*math.Log(x) - x + 0.91893853320467274178 +
		1/(12*x) - 1/(360*x*x*x)
}

var logFactTable = [...]float64{
	0,
	0,
	0.69314718055994531,
	1.79175946922805500,
	3.17805383034794562,
	4.78749174278204599,
	6.57925121201010100,
	8.52516136106541430,
	10.60460290274525023,
	12.80182748008146961,
	15.10441257307551530,
	17.50230784587388584,
	19.98721449566188615,
	22.55216385312342289,
	25.19122118273868150,
	27.89927138384089157,
}

// Running accumulates streaming mean and variance via Welford's algorithm.
// The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N reports the number of observations.
func (r *Running) N() int { return r.n }

// Mean reports the sample mean (0 for no observations).
func (r *Running) Mean() float64 { return r.mean }

// Variance reports the unbiased sample variance (0 for fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev reports the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min reports the smallest observation (0 for no observations).
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation (0 for no observations).
func (r *Running) Max() float64 { return r.max }

// StdErr reports the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}
