package channel

import (
	"math"
	"testing"
	"testing/quick"

	"breathe/internal/rng"
)

func TestBitFlip(t *testing.T) {
	if Zero.Flip() != One || One.Flip() != Zero {
		t.Fatal("Flip is not an involution on {0,1}")
	}
	if Zero.String() != "0" || One.String() != "1" {
		t.Fatal("unexpected Bit string form")
	}
}

func TestNewBSCValidation(t *testing.T) {
	for _, p := range []float64{-0.01, 0.5, 0.7, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBSC(%v) did not panic", p)
				}
			}()
			NewBSC(p)
		}()
	}
	if c := NewBSC(0); c.FlipProb() != 0 {
		t.Error("NewBSC(0) should be accepted")
	}
}

func TestFromEpsilonValidation(t *testing.T) {
	for _, e := range []float64{0, -0.1, 0.51, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEpsilon(%v) did not panic", e)
				}
			}()
			FromEpsilon(e)
		}()
	}
	c := FromEpsilon(0.2)
	if math.Abs(c.FlipProb()-0.3) > 1e-15 {
		t.Errorf("FromEpsilon(0.2).FlipProb() = %v, want 0.3", c.FlipProb())
	}
	if c2 := FromEpsilon(0.5); c2.FlipProb() != 0 {
		t.Errorf("FromEpsilon(0.5) should be noiseless, got p=%v", c2.FlipProb())
	}
}

// flips counts the words of cell c, counters [0, draws), that flip a bit
// under threshold t: the engine's noise rule, word>>11 < t.
func flips(c rng.Cell, draws int, t uint64) int {
	k := 0
	for i := 0; i < draws; i++ {
		if c.Uint64(uint64(i))>>11 < t {
			k++
		}
	}
	return k
}

func TestBSCFlipRate(t *testing.T) {
	c := rng.NewKey(1).Cell(rng.StreamNoise, 0)
	for _, p := range []float64{0.05, 0.2, 0.45} {
		const draws = 200000
		got := float64(flips(c, draws, FlipThreshold53(NewBSC(p).FlipProb()))) / draws
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/draws) {
			t.Errorf("BSC(%v) flip rate = %v", p, got)
		}
	}
}

// send applies the engine's noise rule to bit b: it arrives flipped
// exactly when the addressed noise word w falls under threshold t.
func send(b Bit, w, t uint64) Bit {
	if w>>11 < t {
		return b.Flip()
	}
	return b
}

func TestBSCSymmetric(t *testing.T) {
	// The flip rate must not depend on the transmitted bit.
	thresh := FlipThreshold53(NewBSC(0.3).FlipProb())
	c := rng.NewKey(2).Cell(rng.StreamNoise, 0)
	const draws = 100000
	flips0, flips1 := 0, 0
	for i := uint64(0); i < draws; i++ {
		if send(Zero, c.Uint64(2*i), thresh) != Zero {
			flips0++
		}
		if send(One, c.Uint64(2*i+1), thresh) != One {
			flips1++
		}
	}
	diff := math.Abs(float64(flips0-flips1)) / draws
	if diff > 0.01 {
		t.Fatalf("asymmetric flip rates: %d vs %d", flips0, flips1)
	}
}

// TestNoiseless: the noiseless control is the BSC at flip probability 0,
// whose threshold no word falls under.
func TestNoiseless(t *testing.T) {
	c := NewBSC(0)
	if c.FlipProb() != 0 {
		t.Fatal("BSC(0) FlipProb != 0")
	}
	if FlipThreshold53(c.FlipProb()) != 0 {
		t.Fatal("BSC(0) has a nonzero flip threshold")
	}
	if k := flips(rng.NewKey(3).Cell(rng.StreamNoise, 0), 1000, 0); k != 0 {
		t.Fatalf("BSC(0) flipped %d bits", k)
	}
}

// TestMixedFlipProbIsBSCInLaw: heterogeneous noise — each message
// flipped with its own probability, drawn uniformly from [lo, hi] — flips
// at the mean (lo+hi)/2, and flips of distinct messages are independent,
// so it is in law the BSC at (lo+hi)/2. That equivalence is why the
// model's "at most 1/2 − ε" needs no channel besides BSC.
func TestMixedFlipProbIsBSCInLaw(t *testing.T) {
	const lo, hi = 0.1, 0.3
	k := rng.NewKey(4)
	probs, noise := k.Cell(rng.StreamNoise, 0), k.Cell(rng.StreamNoise, 1)
	const draws = 200000
	mixed := 0
	for i := uint64(0); i < draws; i++ {
		p := lo + (hi-lo)*float64(probs.Uint64(i)>>11)/(1<<53)
		if noise.Uint64(i)>>11 < FlipThreshold53(p) {
			mixed++
		}
	}
	bscFlips := flips(k.Cell(rng.StreamNoise, 2), draws, FlipThreshold53(NewBSC((lo+hi)/2).FlipProb()))
	// Both counts are Binomial(draws, 0.2): sd ≈ 179 each, ≈ 253 for
	// their difference, so 1500 is about 6 sd.
	if got := float64(mixed) / draws; math.Abs(got-0.2) > 0.01 {
		t.Fatalf("heterogeneous mean flip rate = %v, want about 0.2", got)
	}
	if d := mixed - bscFlips; d > 1500 || d < -1500 {
		t.Fatalf("heterogeneous flips %d, BSC(0.2) flips %d", mixed, bscFlips)
	}
}

func TestNames(t *testing.T) {
	if got := NewBSC(0.25).Name(); got != "bsc(p=0.25)" {
		t.Errorf("BSC name %q", got)
	}
	if got := FromEpsilon(0.5).Name(); got != "bsc(p=0)" {
		t.Errorf("noiseless BSC name %q", got)
	}
}

// Property: at any flip probability and any noise word the delivered
// bit is a valid bit, either the one sent or its flip.
func TestQuickTransmitValidBit(t *testing.T) {
	threshs := []uint64{
		FlipThreshold53(NewBSC(0.49).FlipProb()),
		FlipThreshold53(NewBSC(0.3).FlipProb()),
		FlipThreshold53(NewBSC(0).FlipProb()),
	}
	f := func(raw uint8, w uint64) bool {
		b := Bit(raw & 1)
		for _, th := range threshs {
			out := send(b, w, th)
			if out != Zero && out != One || out != b && out != b.Flip() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The integer form the kernels use must flip exactly when the float form
// Float64() < p does: Float64() is the top 53 bits of one draw, so
// (Uint64()>>11) < FlipThreshold53(p) on an identical stream gives
// identical outputs.
func TestBSCTransmitMatchesFlipThreshold53(t *testing.T) {
	for _, p := range []float64{0.23, 0.5 - 1e-9, 1e-12} {
		c := NewBSC(p)
		thresh := FlipThreshold53(c.FlipProb())
		var r1, r2 rng.RNG
		r1.Reseed(99)
		r2.Reseed(99)
		for i := 0; i < 4096; i++ {
			b := Bit(i & 1)
			want := b
			if r1.Float64() < c.FlipProb() {
				want ^= 1
			}
			if got := send(b, r2.Uint64(), thresh); got != want {
				t.Fatalf("p=%v bit %d: threshold form %v, float form %v", p, i, got, want)
			}
		}
	}
}

func TestFlipThreshold53(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0, 0},
		{-1, 0},
		{1, 1 << 53},
		{2, 1 << 53},
		{0.5, 1 << 52},
	}
	for _, c := range cases {
		if got := FlipThreshold53(c.p); got != c.want {
			t.Errorf("FlipThreshold53(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}
