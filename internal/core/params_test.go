package core

import (
	"math"
	"testing"
)

func TestDefaultParamsValid(t *testing.T) {
	for _, n := range []int{2, 100, 4096, 1 << 20} {
		for _, eps := range []float64{0.05, 0.2, 0.5} {
			p := DefaultParams(n, eps)
			if err := p.Validate(); err != nil {
				t.Errorf("DefaultParams(%d, %v) invalid: %v", n, eps, err)
			}
			if p.N != n || p.Eps != eps {
				t.Errorf("params did not record n/eps: %+v", p)
			}
		}
	}
}

func TestPaperParamsValid(t *testing.T) {
	p := PaperParams(64, 0.25)
	if err := p.Validate(); err != nil {
		t.Fatalf("PaperParams invalid: %v", err)
	}
	// The proof constant r = 2²²/ε² must show through: gamma is enormous.
	if p.Gamma < 1<<22 {
		t.Errorf("paper Gamma = %d, expected at least 2^22", p.Gamma)
	}
}

func TestNewParamsPanics(t *testing.T) {
	cases := []struct {
		n   int
		eps float64
	}{{1, 0.3}, {100, 0}, {100, -0.1}, {100, 0.6}, {100, math.NaN()}, {100, math.Inf(1)},
		// A schedule past int, and an eps below which 1/2 − ε rounds to 1/2.
		{64, 1e-12}, {64, 1e-300}}
	for _, c := range cases {
		if _, err := ParamsFor(c.n, c.eps, DefaultConstants); err == nil {
			t.Errorf("ParamsFor(%d, %v) returned no error", c.n, c.eps)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewParams(%d, %v) did not panic", c.n, c.eps)
				}
			}()
			NewParams(c.n, c.eps, DefaultConstants)
		}()
	}
}

// TestParamsForSmallEps: a small eps that still fits yields a valid,
// positive schedule.
func TestParamsForSmallEps(t *testing.T) {
	p, err := ParamsFor(64, 1e-6, DefaultConstants)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil || p.TotalRounds() < int(1e12) {
		t.Fatalf("eps 1e-6: %v, %d rounds", err, p.TotalRounds())
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	good := DefaultParams(1024, 0.3)
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"n", func(p *Params) { p.N = 1 }},
		{"eps zero", func(p *Params) { p.Eps = 0 }},
		{"eps big", func(p *Params) { p.Eps = 0.7 }},
		{"eps NaN", func(p *Params) { p.Eps = math.NaN() }},
		{"eps -Inf", func(p *Params) { p.Eps = math.Inf(-1) }},
		{"betaS", func(p *Params) { p.BetaS = 0 }},
		{"negative T", func(p *Params) { p.T = -1 }},
		{"beta with phases", func(p *Params) { p.T = 2; p.Beta = 0 }},
		{"betaF", func(p *Params) { p.BetaF = 0 }},
		{"even gamma", func(p *Params) { p.Gamma = 10 }},
		{"zero gamma", func(p *Params) { p.Gamma = 0 }},
		{"negative K", func(p *Params) { p.K = -1 }},
		{"even gammaFinal", func(p *Params) { p.GammaFinal = 8 }},
	}
	for _, tc := range cases {
		p := good
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestGammaAlwaysOdd(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.17, 0.3, 0.5} {
		p := DefaultParams(1000, eps)
		if p.Gamma%2 == 0 {
			t.Errorf("eps=%v: Gamma %d even", eps, p.Gamma)
		}
		if p.GammaFinal%2 == 0 {
			t.Errorf("eps=%v: GammaFinal %d even", eps, p.GammaFinal)
		}
	}
}

func TestRoundArithmetic(t *testing.T) {
	p := DefaultParams(4096, 0.3)
	if got := p.MFinal(); got != 2*p.GammaFinal {
		t.Errorf("MFinal = %d", got)
	}
	wantI := p.BetaS + p.T*p.Beta + p.BetaF
	if got := p.StageIRounds(); got != wantI {
		t.Errorf("StageIRounds = %d, want %d", got, wantI)
	}
	wantII := p.K*2*p.Gamma + p.MFinal()
	if got := p.StageIIRounds(); got != wantII {
		t.Errorf("StageIIRounds = %d, want %d", got, wantII)
	}
	if got := p.TotalRounds(); got != wantI+wantII {
		t.Errorf("TotalRounds = %d", got)
	}
}

// TestRoundsScaleAsTheoremPredicts checks the headline O(log n / ε²)
// shape at the parameter level: doubling n adds only O(1/ε²) rounds, and
// halving ε roughly quadruples the total.
func TestRoundsScaleAsTheoremPredicts(t *testing.T) {
	r1 := DefaultParams(1<<12, 0.3).TotalRounds()
	r2 := DefaultParams(1<<16, 0.3).TotalRounds()
	r3 := DefaultParams(1<<20, 0.3).TotalRounds()
	// log-linear growth in n: increments within 3x of each other.
	d1, d2 := r2-r1, r3-r2
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("rounds not increasing in n: %d %d %d", r1, r2, r3)
	}
	if float64(d2) > 3*float64(d1) || float64(d1) > 3*float64(d2) {
		t.Errorf("rounds vs n not log-linear: increments %d then %d", d1, d2)
	}
	a := DefaultParams(1<<14, 0.4).TotalRounds()
	b := DefaultParams(1<<14, 0.2).TotalRounds()
	ratio := float64(b) / float64(a)
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("rounds ratio for eps halving = %v, want about 4", ratio)
	}
}

func TestMemoryBitsGrowth(t *testing.T) {
	// O(log log n + log 1/ε): from n = 2^10 to n = 2^20 the bit count may
	// grow only by a few bits, far sub-logarithmically.
	small := DefaultParams(1<<10, 0.3).MemoryBits()
	big := DefaultParams(1<<20, 0.3).MemoryBits()
	if big <= 0 || small <= 0 {
		t.Fatal("nonpositive memory bits")
	}
	if big-small > 12 {
		t.Errorf("memory grew too fast: %d bits at 2^10 vs %d at 2^20", small, big)
	}
	// Dependence on ε is logarithmic: eps 0.3 -> 0.03 multiplies 1/ε² by
	// 100 and may add only ~log2(100) ≈ 7 bits per counter.
	loweps := DefaultParams(1<<10, 0.03).MemoryBits()
	if loweps-small > 30 {
		t.Errorf("memory grew too fast in 1/eps: %d vs %d", small, loweps)
	}
}

func TestStartPhaseForConsensus(t *testing.T) {
	p := DefaultParams(1<<20, 0.3) // large n so T >= 2
	if p.T < 2 {
		t.Skipf("need T >= 2 for this test, got %d", p.T)
	}
	// Tiny A: start at phase 1.
	if got := p.StartPhaseForConsensus(1); got != 1 {
		t.Errorf("tiny A start phase = %d, want 1", got)
	}
	// A of about the phase-0 size: still early.
	if got := p.StartPhaseForConsensus(p.BetaS); got != 1 {
		t.Errorf("A = BetaS start phase = %d, want 1", got)
	}
	// Huge A: clamped to T+1.
	if got := p.StartPhaseForConsensus(p.N); got > p.T+1 {
		t.Errorf("start phase %d beyond T+1 = %d", got, p.T+1)
	}
	// Monotone in |A|.
	prev := 0
	for _, size := range []int{1, p.BetaS, p.BetaS * (p.Beta + 1), p.BetaS * (p.Beta + 1) * (p.Beta + 1), p.N} {
		got := p.StartPhaseForConsensus(size)
		if got < prev {
			t.Errorf("start phase not monotone: |A|=%d gives %d after %d", size, got, prev)
		}
		prev = got
	}
}

func TestStartPhaseForConsensusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("|A| = 0 did not panic")
		}
	}()
	DefaultParams(100, 0.3).StartPhaseForConsensus(0)
}

func TestOddCeil(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{{0, 1}, {0.5, 1}, {1, 1}, {1.5, 3}, {2, 3}, {3, 3}, {4.2, 5}}
	for _, c := range cases {
		if got := oddCeil(c.in); got != c.want {
			t.Errorf("oddCeil(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCeilAtLeast(t *testing.T) {
	if got := ceilAtLeast(0.2, 1); got != 1 {
		t.Errorf("ceilAtLeast(0.2, 1) = %d", got)
	}
	if got := ceilAtLeast(5.4, 1); got != 6 {
		t.Errorf("ceilAtLeast(5.4, 1) = %d", got)
	}
}

func TestTGrowsWithN(t *testing.T) {
	// T = O(log n / log(1/ε)) must eventually become positive.
	small := DefaultParams(1<<10, 0.3)
	big := DefaultParams(1<<22, 0.3)
	if big.T < small.T {
		t.Errorf("T decreased with n: %d then %d", small.T, big.T)
	}
	if big.T < 1 {
		t.Errorf("T = %d at n = 2^22, expected layered phases", big.T)
	}
	// With smaller constants (cheaper phases) more layers fit.
	c := DefaultConstants
	c.S, c.B = 0.5, 0.5
	layered := NewParams(1<<16, 0.3, c)
	if layered.T < 2 {
		t.Errorf("expected T >= 2 with small constants, got %d", layered.T)
	}
}

func TestKScaling(t *testing.T) {
	// K = O(log n): grows with n, and stays 0 for tiny populations where
	// the assumed initial bias is already constant.
	if k := DefaultParams(4, 0.3).K; k != 0 {
		t.Errorf("K = %d for n = 4, want 0", k)
	}
	k12 := DefaultParams(1<<12, 0.3).K
	k20 := DefaultParams(1<<20, 0.3).K
	if k20 <= k12 {
		t.Errorf("K not increasing: %d then %d", k12, k20)
	}
	// Roughly linear in log n: the increment for 8 more doublings is
	// about 8/log2(Amp).
	wantInc := 8 / math.Log2(DefaultConstants.Amp)
	if inc := float64(k20 - k12); inc < 0.3*wantInc || inc > 3*wantInc {
		t.Errorf("K increment = %v, want about %.1f", inc, wantInc)
	}
}
