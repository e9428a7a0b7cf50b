package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
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

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must be deterministic given the parent's seed...
	parent2 := New(7)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("split streams not reproducible at draw %d", i)
		}
	}
	// ...and must not duplicate the parent's stream.
	p := New(7)
	c := p.Split()
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
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 generator repeated values: %d distinct of 100", len(seen))
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(11)
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
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(9)
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

func TestBernoulliEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(17)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		const draws = 100000
		for i := 0; i < draws; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/draws)+1e-9 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(2)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// --- Binomial ---

func TestBinomialEdgeCases(t *testing.T) {
	r := New(1)
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
	New(1).Binomial(-1, 0.5)
}

func TestBinomialRange(t *testing.T) {
	r := New(6)
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
	r := New(13)
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
	r := New(99)
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
	r := New(51)
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
	r := New(52)
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

func TestQuickPermValid(t *testing.T) {
	r := New(54)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialBTRS(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(10000, 0.3)
	}
}

func TestUint32nDeterministicAndInRange(t *testing.T) {
	r := New(123)
	for i := 0; i < 10000; i++ {
		n := uint32(i%997 + 1)
		if v := r.Uint32n(n); v >= n {
			t.Fatalf("Uint32n(%d) = %d out of range", n, v)
		}
	}
	a, b := New(9), New(9)
	for i := 0; i < 1000; i++ {
		if a.Uint32n(1000) != b.Uint32n(1000) {
			t.Fatalf("Uint32n not deterministic at draw %d", i)
		}
	}
}

func TestUint32nUniform(t *testing.T) {
	// Chi-squared-style sanity bound over 16 cells.
	const cells, draws = 16, 1 << 18
	r := New(77)
	var counts [cells]int
	for i := 0; i < draws; i++ {
		counts[r.Uint32n(cells)]++
	}
	want := float64(draws) / cells
	for c, got := range counts {
		if math.Abs(float64(got)-want) > 6*math.Sqrt(want) {
			t.Errorf("cell %d: %d draws, want about %.0f", c, got, want)
		}
	}
}

func TestUint32nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint32n(0) did not panic")
		}
	}()
	New(1).Uint32n(0)
}

// TestReseedMatchesNew: Reseed must reproduce New's state exactly so the
// kernels' ephemeral streams — a zero RNG on the stack, reseeded from an
// addressed draw — are indistinguishable from freshly allocated ones.
func TestReseedMatchesNew(t *testing.T) {
	r := New(1)
	r.Uint64() // advance away from the seed state
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		r.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 8; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Reseed stream %#x, New stream %#x", seed, i, got, want)
			}
		}
	}
}
