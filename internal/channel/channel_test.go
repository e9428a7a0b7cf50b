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

func TestBSCFlipRate(t *testing.T) {
	r := rng.New(1)
	for _, p := range []float64{0.05, 0.2, 0.45} {
		c := NewBSC(p)
		const draws = 200000
		flips := 0
		for i := 0; i < draws; i++ {
			if c.Transmit(One, r) != One {
				flips++
			}
		}
		got := float64(flips) / draws
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/draws) {
			t.Errorf("BSC(%v) flip rate = %v", p, got)
		}
	}
}

func TestBSCSymmetric(t *testing.T) {
	// The flip rate must not depend on the transmitted bit.
	c := NewBSC(0.3)
	r := rng.New(2)
	const draws = 100000
	flips0, flips1 := 0, 0
	for i := 0; i < draws; i++ {
		if c.Transmit(Zero, r) != Zero {
			flips0++
		}
		if c.Transmit(One, r) != One {
			flips1++
		}
	}
	diff := math.Abs(float64(flips0-flips1)) / draws
	if diff > 0.01 {
		t.Fatalf("asymmetric flip rates: %d vs %d", flips0, flips1)
	}
}

// TestNoiseless: the noiseless control is the BSC at flip probability 0.
func TestNoiseless(t *testing.T) {
	c := NewBSC(0)
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		if c.Transmit(One, r) != One || c.Transmit(Zero, r) != Zero {
			t.Fatal("BSC(0) corrupted a bit")
		}
	}
	if c.FlipProb() != 0 {
		t.Fatal("BSC(0) FlipProb != 0")
	}
}

// TestMixedFlipProbIsBSCInLaw: heterogeneous noise — each message
// flipped with its own probability, drawn uniformly from [lo, hi] — flips
// at the mean (lo+hi)/2, and flips of distinct messages are independent,
// so it is in law the BSC at (lo+hi)/2. That equivalence is why the
// model's "at most 1/2 − ε" needs no channel besides BSC.
func TestMixedFlipProbIsBSCInLaw(t *testing.T) {
	const lo, hi = 0.1, 0.3
	r := rng.New(4)
	bsc := NewBSC((lo + hi) / 2)
	rb := rng.New(5)
	const draws = 200000
	flips, bscFlips := 0, 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(lo + (hi-lo)*r.Float64()) {
			flips++
		}
		if bsc.Transmit(Zero, rb) != Zero {
			bscFlips++
		}
	}
	// Both counts are Binomial(draws, 0.2): sd ≈ 179 each, ≈ 253 for
	// their difference, so 1500 is about 6 sd.
	if got := float64(flips) / draws; math.Abs(got-0.2) > 0.01 {
		t.Fatalf("heterogeneous mean flip rate = %v, want about 0.2", got)
	}
	if d := flips - bscFlips; d > 1500 || d < -1500 {
		t.Fatalf("heterogeneous flips %d, BSC(0.2) flips %d", flips, bscFlips)
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

// Property: at any flip probability the output is always a valid bit.
func TestQuickTransmitValidBit(t *testing.T) {
	r := rng.New(6)
	chans := []*BSC{NewBSC(0.49), NewBSC(0.3), NewBSC(0)}
	f := func(raw uint8) bool {
		b := Bit(raw & 1)
		for _, c := range chans {
			out := c.Transmit(b, r)
			if out != Zero && out != One {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The BSC's Transmit must flip exactly when the integer form the kernels
// use does: Bernoulli(p) is Float64() < p, and Float64() is the top 53
// bits of one draw, so (Uint64()>>11) < FlipThreshold53(p) on an
// identical stream gives identical outputs.
func TestBSCTransmitMatchesFlipThreshold53(t *testing.T) {
	for _, p := range []float64{0.23, 0.5 - 1e-9, 1e-12} {
		c := NewBSC(p)
		thresh := FlipThreshold53(p)
		r1, r2 := rng.New(99), rng.New(99)
		for i := 0; i < 4096; i++ {
			b := Bit(i & 1)
			want := b
			if r2.Uint64()>>11 < thresh {
				want ^= 1
			}
			if got := c.Transmit(b, r1); got != want {
				t.Fatalf("p=%v bit %d: Transmit %v, threshold form %v", p, i, got, want)
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
