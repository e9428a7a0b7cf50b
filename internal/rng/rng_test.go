package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// newRNG returns a generator reseeded from seed: the zero RNG the
// kernels keep on the stack, after one Reseed.
func newRNG(seed uint64) *RNG {
	var r RNG
	r.Reseed(seed)
	return &r
}

func TestNewDeterministic(t *testing.T) {
	a := newRNG(42)
	b := newRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := newRNG(1)
	b := newRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit draws out of 64", same)
	}
}

// TestSplitIndependence: a generator reseeded from one of its parent's
// words (the reference's way of giving each subsystem its own stream) is
// reproducible and does not duplicate the parent's stream.
func TestSplitIndependence(t *testing.T) {
	split := func(parent *RNG) *RNG { return newRNG(parent.Uint64()) }
	child, child2 := split(newRNG(7)), split(newRNG(7))
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("split streams not reproducible at draw %d", i)
		}
	}
	p := newRNG(7)
	c := split(p)
	dup := 0
	for i := 0; i < 64; i++ {
		if p.Uint64() == c.Uint64() {
			dup++
		}
	}
	if dup > 2 {
		t.Fatalf("parent and child streams look correlated: %d/64 equal draws", dup)
	}
}

func TestZeroSeedIsUsable(t *testing.T) {
	r := newRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 generator repeated values: %d distinct of 100", len(seen))
	}
}

func TestUint64nRange(t *testing.T) {
	r := newRNG(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := newRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	newRNG(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := newRNG(5)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := newRNG(9)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

// A Bernoulli trial is Binomial(1, p); probabilities outside [0, 1]
// clamp.
func TestBernoulliEdgeCases(t *testing.T) {
	r := newRNG(1)
	for i := 0; i < 100; i++ {
		if r.Binomial(1, 0) != 0 || r.Binomial(1, -0.5) != 0 {
			t.Fatal("Binomial(1, p ≤ 0) returned 1")
		}
		if r.Binomial(1, 1) != 1 || r.Binomial(1, 1.5) != 1 {
			t.Fatal("Binomial(1, p ≥ 1) returned 0")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := newRNG(17)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		const draws = 100000
		for i := 0; i < draws; i++ {
			hits += r.Binomial(1, p)
		}
		got := float64(hits) / draws
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/draws)+1e-9 {
			t.Errorf("Binomial(1, %v) frequency = %v", p, got)
		}
	}
}

// --- Binomial ---

func TestBinomialEdgeCases(t *testing.T) {
	r := newRNG(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
}

func TestBinomialPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, .5) did not panic")
		}
	}()
	newRNG(1).Binomial(-1, 0.5)
}

func TestBinomialRange(t *testing.T) {
	r := newRNG(6)
	cases := []struct {
		n int
		p float64
	}{{5, 0.3}, {100, 0.02}, {100, 0.5}, {10000, 0.4}, {10000, 0.999}}
	for _, c := range cases {
		for i := 0; i < 2000; i++ {
			got := r.Binomial(c.n, c.p)
			if got < 0 || got > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, got)
			}
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := newRNG(13)
	cases := []struct {
		n int
		p float64
	}{
		{20, 0.1},    // inversion path
		{50, 0.5},    // BTRS path
		{1000, 0.3},  // BTRS path
		{1000, 0.7},  // symmetry + BTRS
		{5000, 0.02}, // BTRS (np = 100)
		{40, 0.02},   // inversion (np < 10)
	}
	const draws = 40000
	for _, c := range cases {
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			x := float64(r.Binomial(c.n, c.p))
			sum += x
			sumSq += x * x
		}
		mean := sum / draws
		variance := sumSq/draws - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		seMean := math.Sqrt(wantVar / draws)
		if math.Abs(mean-wantMean) > 5*seMean+1e-9 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.5 {
			t.Errorf("Binomial(%d,%v) variance = %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

// TestBinomialChiSquare checks the full distribution on a case that uses
// the BTRS sampler, not only its first two moments.
func TestBinomialChiSquare(t *testing.T) {
	r := newRNG(99)
	const n, p, draws = 40, 0.5, 200000
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[r.Binomial(n, p)]++
	}
	// Compare against exact pmf, pooling the tails so every expected
	// count is at least 10.
	pmf := make([]float64, n+1)
	for k := 0; k <= n; k++ {
		pmf[k] = math.Exp(logFactorial(n) - logFactorial(k) - logFactorial(n-k) +
			float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
	}
	chi2 := 0.0
	df := 0
	var pooledObs, pooledExp float64
	for k := 0; k <= n; k++ {
		exp := pmf[k] * draws
		if exp < 10 {
			pooledObs += float64(counts[k])
			pooledExp += exp
			continue
		}
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
		df++
	}
	if pooledExp > 0 {
		d := pooledObs - pooledExp
		chi2 += d * d / pooledExp
		df++
	}
	df--
	// 99.9th percentile of chi-square is roughly df + 4*sqrt(2 df) + 10.
	limit := float64(df) + 4*math.Sqrt(2*float64(df)) + 10
	if chi2 > limit {
		t.Fatalf("chi-square = %.1f with df = %d exceeds %.1f", chi2, df, limit)
	}
}

// --- property-based tests (testing/quick) ---

func TestQuickUint64nInRange(t *testing.T) {
	r := newRNG(51)
	f := func(n uint64, _ uint8) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinomialInRange(t *testing.T) {
	r := newRNG(52)
	f := func(n uint16, pRaw uint16) bool {
		nn := int(n % 2000)
		p := float64(pRaw) / 65535
		got := r.Binomial(nn, p)
		return got >= 0 && got <= nn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := newRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialBTRS(b *testing.B) {
	r := newRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(10000, 0.3)
	}
}

// The Uint32n tests exercise Cell.Uint32n, the 32-bit bounded draw the
// scatter's placement uses.
func TestUint32nDeterministicAndInRange(t *testing.T) {
	c := NewKey(123).Cell(StreamPlacement, 0)
	for i := uint64(0); i < 10000; i++ {
		n := uint32(i%997 + 1)
		if v := c.Uint32n(i, n); v >= n {
			t.Fatalf("Uint32n(%d) = %d out of range", n, v)
		}
	}
	a, b := NewKey(9).Cell(StreamPlacement, 0), NewKey(9).Cell(StreamPlacement, 0)
	for i := uint64(0); i < 1000; i++ {
		if a.Uint32n(i, 1000) != b.Uint32n(i, 1000) {
			t.Fatalf("Uint32n not deterministic at index %d", i)
		}
	}
}

func TestUint32nUniform(t *testing.T) {
	// Chi-squared-style sanity bound over 16 cells.
	const cells, draws = 16, 1 << 18
	c := NewKey(77).Cell(StreamPlacement, 0)
	var counts [cells]int
	for i := uint64(0); i < draws; i++ {
		counts[c.Uint32n(i, cells)]++
	}
	want := float64(draws) / cells
	for k, got := range counts {
		if math.Abs(float64(got)-want) > 6*math.Sqrt(want) {
			t.Errorf("cell %d: %d draws, want about %.0f", k, got, want)
		}
	}
}

func TestUint32nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint32n(0) did not panic")
		}
	}()
	NewKey(1).Cell(StreamPlacement, 0).Uint32n(0, 0)
}

// TestReseedMatchesNew: Reseed must discard the previous state entirely,
// so the kernels' ephemeral streams — a resident RNG reseeded from an
// addressed draw — are indistinguishable from a fresh one.
func TestReseedMatchesNew(t *testing.T) {
	r := newRNG(1)
	r.Uint64() // advance away from the seed state
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r.Reseed(seed)
		fresh := newRNG(seed)
		for i := 0; i < 8; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Reseed stream %#x, fresh stream %#x", seed, i, got, want)
			}
		}
	}
}
