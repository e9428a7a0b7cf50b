package stats

import (
	"math"
	"testing"

	"breathe/internal/rng"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 7, 40} {
		for _, p := range []float64{0.1, 0.5, 0.93} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += binomialPMF(n, k, p)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("pmf(n=%d, p=%v) sums to %v", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if binomialPMF(10, -1, 0.5) != 0 || binomialPMF(10, 11, 0.5) != 0 {
		t.Error("out-of-support pmf should be 0")
	}
	if binomialPMF(10, 0, 0) != 1 || binomialPMF(10, 10, 1) != 1 {
		t.Error("degenerate pmf should be 1 at the atom")
	}
	if binomialPMF(10, 3, 0) != 0 || binomialPMF(10, 3, 1) != 0 {
		t.Error("degenerate pmf should be 0 off the atom")
	}
}

func TestBinomialTail(t *testing.T) {
	if got := BinomialTailGE(10, 0, 0.5); got != 1 {
		t.Errorf("tail at k=0 should be 1, got %v", got)
	}
	if got := BinomialTailGE(10, 11, 0.5); got != 0 {
		t.Errorf("tail beyond n should be 0, got %v", got)
	}
	// Fair coin: Pr(X >= 6 of 11) = 1/2 by symmetry.
	if got := BinomialTailGE(11, 6, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("symmetric tail = %v, want 0.5", got)
	}
}

func TestMajoritySuccessProbBasics(t *testing.T) {
	// Fair samples: exactly 1/2 for odd gamma.
	if got := MajoritySuccessProb(11, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("fair majority = %v", got)
	}
	// Certain samples: 1.
	if got := MajoritySuccessProb(11, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("certain majority = %v", got)
	}
	// Monotone in q.
	prev := 0.0
	for _, q := range []float64{0.5, 0.55, 0.6, 0.7, 0.9} {
		cur := MajoritySuccessProb(21, q)
		if cur < prev {
			t.Errorf("majority success not monotone at q=%v", q)
		}
		prev = cur
	}
}

func TestMajoritySuccessPanicsOnEvenGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("even gamma did not panic")
		}
	}()
	MajoritySuccessProb(10, 0.6)
}

func TestLemma211BoundShape(t *testing.T) {
	if got := Lemma211Bound(0.001); math.Abs(got-0.504) > 1e-12 {
		t.Errorf("small delta bound = %v", got)
	}
	if got := Lemma211Bound(0.3); got != 0.51 {
		t.Errorf("large delta bound should cap at 0.51, got %v", got)
	}
}

func TestSampleCorrectProb(t *testing.T) {
	// delta=1/2 (all correct), eps=1/2 (no noise) => 1.
	if got := SampleCorrectProb(0.5, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("noiseless unanimous = %v", got)
	}
	// Zero bias => 1/2 regardless of noise.
	if got := SampleCorrectProb(0, 0.3); got != 0.5 {
		t.Errorf("zero bias = %v", got)
	}
	if got := SampleCorrectProb(0.1, 0.25); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("SampleCorrectProb(.1,.25) = %v", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Errorf("Wilson interval [%v, %v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide: [%v, %v]", lo, hi)
	}
	lo0, hi0 := WilsonInterval(0, 0, 1.96)
	if lo0 != 0 || hi0 != 1 {
		t.Errorf("empty interval = [%v, %v]", lo0, hi0)
	}
	lo1, hi1 := WilsonInterval(100, 100, 1.96)
	if hi1 < 0.999 || lo1 <= 0.9 {
		t.Errorf("all-success interval = [%v, %v]", lo1, hi1)
	}
}

func TestRunningMoments(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Unbiased sample variance of the set is 32/7.
	if math.Abs(r.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", r.Variance(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.StdErr() <= 0 {
		t.Error("stderr should be positive")
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 {
		t.Error("empty Running should report zeros")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	f := FitLinear(xs, ys)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R2 = %v", f.R2)
	}
}

func TestFitLinearPanics(t *testing.T) {
	cases := []struct{ xs, ys []float64 }{
		{[]float64{1}, []float64{1}},
		{[]float64{1, 2}, []float64{1}},
		{[]float64{2, 2, 2}, []float64{1, 2, 3}},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			FitLinear(c.xs, c.ys)
		}()
	}
}

func TestFitPowerLaw(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x // y = 3 x^2
	}
	k, c, r2 := FitPowerLaw(xs, ys)
	if math.Abs(k-2) > 1e-9 || math.Abs(c-3) > 1e-9 || r2 < 0.999 {
		t.Errorf("power fit k=%v c=%v r2=%v", k, c, r2)
	}
}

func TestIsMonotoneNondecreasing(t *testing.T) {
	if !IsMonotoneNondecreasing([]float64{1, 2, 3}, 0) {
		t.Error("strictly increasing rejected")
	}
	if IsMonotoneNondecreasing([]float64{3, 1}, 0) {
		t.Error("decreasing accepted with zero slack")
	}
	if !IsMonotoneNondecreasing([]float64{10, 9.6, 11}, 0.05) {
		t.Error("small dip within slack rejected")
	}
	if !IsMonotoneNondecreasing(nil, 0) {
		t.Error("empty should be monotone")
	}
}

// --- Two-step process (Lemma 2.11 machinery) ---

func TestTwoStepValidation(t *testing.T) {
	cases := []struct {
		gamma int
		b     float64
	}{{0, 0.1}, {4, 0.1}, {5, -0.1}, {5, 0.6}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTwoStepProcess(%d, %v) did not panic", c.gamma, c.b)
				}
			}()
			NewTwoStepProcess(c.gamma, c.b)
		}()
	}
}

// TestTwoStepEquivalence verifies the proof's key observation: after the
// two steps each player is correct with probability exactly 1/2 + b, so
// the exact success equals MajoritySuccessProb(gamma, 1/2+b), and the
// Monte-Carlo estimate converges to it.
func TestTwoStepEquivalence(t *testing.T) {
	key := rng.NewKey(19)
	for _, c := range []struct {
		gamma int
		b     float64
	}{{11, 0.02}, {21, 0.1}, {5, 0.3}} {
		p := NewTwoStepProcess(c.gamma, c.b)
		exact := p.ExactSuccess()
		want := MajoritySuccessProb(c.gamma, 0.5+c.b)
		if math.Abs(exact-want) > 1e-12 {
			t.Errorf("gamma=%d b=%v: exact %v != analytic %v", c.gamma, c.b, exact, want)
		}
		est := p.SuccessRate(40000, key)
		if math.Abs(est-exact) > 0.012 {
			t.Errorf("gamma=%d b=%v: Monte-Carlo %v vs exact %v", c.gamma, c.b, est, exact)
		}
	}
}

// TestLemma211HoldsExactly checks the paper's Lemma 2.11 numerically: for
// the paper's parameterization r = ceil(2^22/eps^2) the bound
// min(1/2+4δ, 51/100) holds for the exact majority probability. We verify
// on a computationally feasible grid with the same structure
// (gamma = 2r+1, r >= 1/eps^2, q = 1/2 + 2εδ) — see experiment E5 for the
// empirical sweep.
func TestLemma211HoldsExactly(t *testing.T) {
	for _, eps := range []float64{0.1, 0.2, 0.3} {
		r := int(math.Ceil(16 / (eps * eps))) // larger constant than 1/eps^2, far below 2^22
		gamma := 2*r + 1
		for _, delta := range []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5} {
			q := SampleCorrectProb(delta, eps)
			got := MajoritySuccessProb(gamma, q)
			want := Lemma211Bound(delta)
			if got < want-1e-9 {
				t.Errorf("eps=%v delta=%v: majority prob %v below bound %v", eps, delta, got, want)
			}
		}
	}
}
