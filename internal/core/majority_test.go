package core

import (
	"math"
	"math/big"
	"math/bits"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/stats"
)

// tailError bounds the relative error of upperTail, and so of P̂, for
// subset size g and totals with total·g < 2⁵³ (every product upperTail
// forms converts to float64 exactly). A pmf weight is at most g steps of
// the ratio recurrence from the bottom of the support, each one rounded
// division and one rounded product (2g roundings; the rescales are
// exact); the tail and the total weight each sum at most g+1 positive
// weights (g more each); the final division adds one. That is
// (6g+1)·2⁻⁵³ to first order, and 6g+8 covers the higher-order terms.
// Weights that underflow move P̂ by less than (g+1)·2⁻¹⁰²², far below a
// threshold's 2⁻⁶⁴ resolution.
func tailError(g int) float64 {
	return float64(6*g+8) * 0x1p-53
}

// exactTail returns P = Pr[Hyp(total, ones, g) > g/2] as an exact
// rational: Σ_{x > g/2} C(ones, x)·C(total−ones, g−x) / C(total, g).
func exactTail(total, ones, g int) *big.Rat {
	need := g/2 + 1
	zeros := total - ones
	num := new(big.Int)
	if x := max(need, g-zeros); x <= min(g, ones) {
		a := new(big.Int).Binomial(int64(ones), int64(x))    // C(ones, x)
		b := new(big.Int).Binomial(int64(zeros), int64(g-x)) // C(zeros, g−x)
		for t := new(big.Int); ; x++ {
			num.Add(num, t.Mul(a, b))
			if x == min(g, ones) {
				break
			}
			a.Mul(a, big.NewInt(int64(ones-x))).Quo(a, big.NewInt(int64(x+1)))
			b.Mul(b, big.NewInt(int64(g-x))).Quo(b, big.NewInt(int64(zeros-g+x+1)))
		}
	}
	return new(big.Rat).SetFrac(num, new(big.Int).Binomial(int64(total), int64(g)))
}

// exactThreshold returns ⌊P·2⁶⁴⌋, which is 2⁶⁴ when P = 1.
func exactThreshold(p *big.Rat) *big.Int {
	num := new(big.Int).Lsh(p.Num(), 64)
	return num.Quo(num, p.Denom())
}

// ruleThreshold reads the threshold Opinion applies off its decisions:
// the number of words that adopt One, 0 when no word does (P = 0) and 2⁶⁴
// when every word does (P = 1). The decision is monotone in the word, so
// a binary search finds the first word that adopts Zero.
func ruleThreshold(r *MajorityRule, g, total, ones int) *big.Int {
	one := func(word uint64) bool { return r.Opinion(g, total, ones, word) == channel.One }
	if one(math.MaxUint64) {
		return new(big.Int).Lsh(big.NewInt(1), 64)
	}
	lo, hi := uint64(0), uint64(math.MaxUint64) // one(hi) is false
	for lo < hi {
		mid := lo + (hi-lo)/2
		if one(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return new(big.Int).SetUint64(lo)
}

// checkThreshold fails unless the rule's threshold for (total, ones)
// equals the exact ⌊P·2⁶⁴⌋ within tailError(g)·⌊P·2⁶⁴⌋ + 2: the relative
// error of P̂, one unit for the floor and one for holding a P̂ that
// rounds to 1 below 2⁶⁴. P = 0 and P = 1 must come out exact.
func checkThreshold(t *testing.T, r *MajorityRule, g, total, ones int) {
	t.Helper()
	p := exactTail(total, ones, g)
	want := exactThreshold(p)
	got := ruleThreshold(r, g, total, ones)
	diff := new(big.Int).Sub(got, want)
	diff.Abs(diff)
	wantF, _ := new(big.Float).SetInt(want).Float64()
	edge := p.Sign() == 0 || p.Cmp(big.NewRat(1, 1)) == 0
	if (edge && diff.Sign() != 0) || !diff.IsUint64() || float64(diff.Uint64()) > tailError(g)*wantF+2 {
		t.Errorf("g=%d total=%d ones=%d: threshold %v, exact %v (P = %s)", g, total, ones, got, want, p.FloatString(20))
	}
}

// TestMajorityTailMatchesSubsets checks the exact tail against brute
// force at tiny totals: adopting the majority of a uniformly random
// g-subset of the samples — every one of the C(total, g) subsets
// enumerated — adopts One with probability exactly P (Remark 2.10).
func TestMajorityTailMatchesSubsets(t *testing.T) {
	for total := 1; total <= 10; total++ {
		for g := 1; g <= total; g++ {
			for ones := 0; ones <= total; ones++ {
				onesMask := uint(1)<<ones - 1 // samples 0..ones−1 are 1s
				var subsets, majority int64
				for s := uint(0); s < 1<<total; s++ {
					if bits.OnesCount(s) != g {
						continue
					}
					subsets++
					if 2*bits.OnesCount(s&onesMask) > g {
						majority++
					}
				}
				if got := exactTail(total, ones, g); got.Cmp(big.NewRat(majority, subsets)) != 0 {
					t.Errorf("total=%d ones=%d g=%d: tail %s, subsets %d/%d", total, ones, g, got, majority, subsets)
				}
			}
		}
	}
}

// TestMajorityThresholds compares every threshold of small rows, and of
// a few rows at the protocol's subset sizes (every third one of the
// g = 1001 row), with the exact value.
func TestMajorityThresholds(t *testing.T) {
	var r MajorityRule
	for _, g := range []int{1, 2, 3, 4, 5, 7, 9, 15} {
		for total := g; total <= 3*g; total++ {
			for ones := 0; ones <= total; ones++ {
				checkThreshold(t, &r, g, total, ones)
			}
		}
	}
	for _, c := range []struct{ g, total int }{
		{47, 47}, {47, 48}, {47, 94}, {47, 141}, {47, 400},
		{113, 114}, {113, 226}, {245, 246}, {245, 490},
		{1001, 2002}, // weights span more than 2¹⁰²⁴: upperTail rescales
	} {
		for ones := 0; ones <= c.total; ones += 1 + c.total/1000 {
			checkThreshold(t, &r, c.g, c.total, ones)
		}
	}
}

// TestMajorityRuleLaw checks the decision's one-rate against the exact
// tail: on 2¹⁸ keyed words per case, the exact P must lie inside the
// Wilson interval at 5 standard errors, and P = 0 or 1 must be met by
// every word.
func TestMajorityRuleLaw(t *testing.T) {
	const trials = 1 << 18
	key := rng.NewKey(31)
	var r MajorityRule
	for i, c := range []struct{ total, ones, g int }{
		{1, 0, 1}, {1, 1, 1}, // P = 0, P = 1
		{47, 24, 47}, {47, 23, 47}, // the whole sample is the subset
		{48, 24, 47}, // P = 1/2: the one left out is a 0 or a 1
		{94, 47, 47}, {94, 40, 47}, {94, 30, 47}, {141, 80, 47},
		{400, 190, 47}, // a window far beyond 2g
		{10, 5, 4},     // even g: a tie adopts Zero
		{200, 105, 113}, {300, 160, 245}, {2002, 1030, 1001},
	} {
		p := exactTail(c.total, c.ones, c.g)
		pf, _ := p.Float64()
		cell := key.Cell(rng.StreamSchedule, uint64(i))
		k := 0
		for a := uint64(0); a < trials; a++ {
			if r.Opinion(c.g, c.total, c.ones, cell.Uint64(a)) == channel.One {
				k++
			}
		}
		lo, hi := stats.WilsonInterval(k, trials, 5)
		switch {
		case pf == 0 || pf == 1:
			if float64(k) != pf*trials {
				t.Errorf("total=%d ones=%d g=%d: P = %v but %d of %d adopt One", c.total, c.ones, c.g, pf, k, trials)
			}
		case pf < lo || pf > hi:
			t.Errorf("total=%d ones=%d g=%d: %d of %d adopt One, Wilson [%.6f, %.6f] excludes P = %.6f", c.total, c.ones, c.g, k, trials, lo, hi, pf)
		}
	}
}

// FuzzMajorityRule checks the threshold against the exact value for
// arbitrary odd g ≤ 63, total ∈ [g, 3g] and ones ∈ [0, total], the P = 0
// and P = 1 rows included.
func FuzzMajorityRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, gi uint8, ti, oi uint16) {
		g := 2*int(gi%32) + 1
		total := g + int(ti)%(2*g+1)
		ones := int(oi) % (total + 1)
		var r MajorityRule
		checkThreshold(t, &r, g, total, ones)
	})
}
