package rng

import (
	"math"
	"testing"
)

// TestMultinomialSplitConservesTotals: every draw partitions the total
// exactly, for a spread of totals and bucket shapes including zero-size
// and dominant buckets.
func TestMultinomialSplitConservesTotals(t *testing.T) {
	r := New(101)
	shapes := [][]int{
		{1},
		{5, 5},
		{1, 2, 3},
		{8192, 8192, 8192, 1},
		{0, 7, 0, 3},
		{1000000, 1},
	}
	for _, sizes := range shapes {
		out := make([]int, len(sizes))
		for _, total := range []int{0, 1, 7, 1000, 123456} {
			for rep := 0; rep < 20; rep++ {
				r.MultinomialSplit(total, sizes, out)
				sum := 0
				for i, k := range out {
					if k < 0 {
						t.Fatalf("sizes=%v total=%d: negative count %d", sizes, total, k)
					}
					if sizes[i] == 0 && k != 0 {
						t.Fatalf("sizes=%v total=%d: zero-weight bucket %d got %d items", sizes, total, i, k)
					}
					sum += k
				}
				if sum != total {
					t.Fatalf("sizes=%v: split of %d sums to %d (%v)", sizes, total, sum, out)
				}
			}
		}
	}
}

// TestMultinomialSplitSingleBucketConsumesNoDraws pins the P = 1
// degenerate case: the whole total lands in the only bucket and the
// stream does not advance — the property that makes the sharded kernel's
// one-shard configuration free.
func TestMultinomialSplitSingleBucketConsumesNoDraws(t *testing.T) {
	r := New(55)
	probe := New(55)
	out := make([]int, 1)
	r.MultinomialSplit(12345, []int{777}, out)
	if out[0] != 12345 {
		t.Fatalf("single bucket got %d of 12345", out[0])
	}
	if got, want := r.Uint64(), probe.Uint64(); got != want {
		t.Fatalf("single-bucket split advanced the stream: next draw %#x, want %#x", got, want)
	}
}

// TestMultinomialSplitMatchesSequentialBucketSampler: draw-for-draw
// agreement with the dense kernel's inline sequential-multinomial
// convention (conditional binomial per bucket, final bucket takes the
// remainder without a draw). Both consume the same stream, so starting
// from the same seed they must produce identical counts.
func TestMultinomialSplitMatchesSequentialBucketSampler(t *testing.T) {
	sizes := []int{8192, 8192, 8192, 8192, 5000}
	out := make([]int, len(sizes))
	for seed := uint64(0); seed < 10; seed++ {
		r1 := New(seed)
		r1.MultinomialSplit(40000, sizes, out)

		// The inline conditional-binomial chain over receiver buckets.
		r2 := New(seed)
		rem := 40000
		slotsLeft := 0
		for _, s := range sizes {
			slotsLeft += s
		}
		for i, size := range sizes {
			var k int
			if size == slotsLeft {
				k = rem
			} else {
				k = r2.Binomial(rem, float64(size)/float64(slotsLeft))
			}
			if out[i] != k {
				t.Fatalf("seed %d bucket %d: MultinomialSplit %d, sequential sampler %d", seed, i, out[i], k)
			}
			rem -= k
			slotsLeft -= size
		}
		if got, want := r1.Uint64(), r2.Uint64(); got != want {
			t.Fatalf("seed %d: stream positions diverged after split", seed)
		}
	}
}

// TestMultinomialSplitMarginalIsBinomial: a chi-squared test of one
// bucket's marginal against the exact Binomial(total, size/weight) pmf at
// a fixed seed. With total = 8 and p = 1/4 the pmf is computable in
// closed form; 20000 trials give the test power without flakiness.
func TestMultinomialSplitMarginalIsBinomial(t *testing.T) {
	const (
		total  = 8
		trials = 20000
	)
	sizes := []int{2, 3, 3} // first bucket: p = 2/8 = 1/4
	out := make([]int, len(sizes))
	r := New(2024)
	counts := make([]int, total+1)
	for i := 0; i < trials; i++ {
		r.MultinomialSplit(total, sizes, out)
		counts[out[0]]++
	}
	p := 0.25
	chi2 := 0.0
	for k := 0; k <= total; k++ {
		pk := math.Exp(logFactorial(total)-logFactorial(k)-logFactorial(total-k)) *
			math.Pow(p, float64(k)) * math.Pow(1-p, float64(total-k))
		expected := pk * trials
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	// 8 degrees of freedom; the 0.999 quantile is ~26.12. A fixed seed
	// makes the test deterministic, the loose bound keeps it meaningful.
	if chi2 > 26.12 {
		t.Fatalf("chi-squared = %v against Binomial(8, 1/4), counts %v", chi2, counts)
	}
}

// TestMultinomialSplitMeansMatchWeights: all marginal means track the
// bucket weights on a larger, uneven shape.
func TestMultinomialSplitMeansMatchWeights(t *testing.T) {
	const (
		total  = 5000
		trials = 400
	)
	sizes := []int{100, 900, 4000, 5000}
	weight := 10000.0
	out := make([]int, len(sizes))
	sums := make([]float64, len(sizes))
	r := New(7)
	for i := 0; i < trials; i++ {
		r.MultinomialSplit(total, sizes, out)
		for j, k := range out {
			sums[j] += float64(k)
		}
	}
	for j, size := range sizes {
		mean := sums[j] / trials
		want := total * float64(size) / weight
		// Standard error of the mean is sqrt(total·p·q/trials) ≤ ~1.8
		// here; allow five of them.
		tol := 5 * math.Sqrt(float64(total)*(float64(size)/weight)*(1-float64(size)/weight)/trials)
		if math.Abs(mean-want) > tol+1e-9 {
			t.Fatalf("bucket %d: mean %v, want %v ± %v", j, mean, want, tol)
		}
	}
}

// TestReseedMatchesNew: Reseed must reproduce New's state exactly so the
// sharded kernel's resident per-shard generators are indistinguishable
// from freshly allocated ones.
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
