package stats

import (
	"fmt"
	"math"
)

// LinearFit holds the result of an ordinary least squares fit
// y = Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLinear fits y = a·x + b by ordinary least squares. xs and ys must
// have equal length of at least two.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: FitLinear length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: FitLinear needs at least two points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: FitLinear with constant x")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			e := ys[i] - (slope*xs[i] + intercept)
			ssRes += e * e
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// FitPowerLaw fits y = c·x^k by linear regression in log-log space and
// returns the exponent k, the prefactor c, and the log-space R². All xs
// and ys must be positive.
func FitPowerLaw(xs, ys []float64) (exponent, prefactor, r2 float64) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: FitPowerLaw needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	f := FitLinear(lx, ly)
	return f.Slope, math.Exp(f.Intercept), f.R2
}

// IsMonotoneNondecreasing reports whether xs is sorted in nondecreasing
// order, allowing a relative slack (e.g. 0.05 tolerates 5% dips from the
// running maximum, which absorbs Monte-Carlo jitter in shape checks).
func IsMonotoneNondecreasing(xs []float64, slack float64) bool {
	runMax := math.Inf(-1)
	for _, x := range xs {
		if x < runMax*(1-slack) {
			return false
		}
		if x > runMax {
			runMax = x
		}
	}
	return true
}
