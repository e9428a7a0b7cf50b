package channel

import (
	"math"
	"strings"
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
	if math.Abs(c.Epsilon()-0.2) > 1e-15 {
		t.Errorf("Epsilon() = %v, want 0.2", c.Epsilon())
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

func TestNoiseless(t *testing.T) {
	var c Noiseless
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		if c.Transmit(One, r) != One || c.Transmit(Zero, r) != Zero {
			t.Fatal("Noiseless corrupted a bit")
		}
	}
	if c.FlipProb() != 0 {
		t.Fatal("Noiseless FlipProb != 0")
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	for _, c := range []struct{ lo, hi float64 }{{-0.1, 0.2}, {0.3, 0.2}, {0.1, 0.5}, {math.NaN(), 0.2}, {0.1, math.NaN()}, {math.Inf(-1), 0.2}, {0.1, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHeterogeneous(%v, %v) did not panic", c.lo, c.hi)
				}
			}()
			NewHeterogeneous(c.lo, c.hi)
		}()
	}
}

func TestHeterogeneousMeanRate(t *testing.T) {
	c := NewHeterogeneous(0.1, 0.3)
	r := rng.New(4)
	const draws = 200000
	flips := 0
	for i := 0; i < draws; i++ {
		if c.Transmit(Zero, r) != Zero {
			flips++
		}
	}
	got := float64(flips) / draws
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("heterogeneous mean flip rate = %v, want about 0.2", got)
	}
	if c.FlipProb() != 0.3 {
		t.Fatalf("FlipProb = %v, want upper bound 0.3", c.FlipProb())
	}
}

func TestCountingAccounting(t *testing.T) {
	c := NewCounting(NewBSC(0.25))
	r := rng.New(5)
	const draws = 100000
	flips := int64(0)
	for i := 0; i < draws; i++ {
		if c.Transmit(One, r) != One {
			flips++
		}
	}
	if c.Transmitted() != draws {
		t.Fatalf("Transmitted = %d, want %d", c.Transmitted(), draws)
	}
	if c.Flipped() != flips {
		t.Fatalf("Flipped = %d, observed %d", c.Flipped(), flips)
	}
	got := c.ObservedFlipRate()
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("ObservedFlipRate = %v", got)
	}
}

func TestCountingEmptyRate(t *testing.T) {
	c := NewCounting(Noiseless{})
	if c.ObservedFlipRate() != 0 {
		t.Fatal("empty counting channel should report rate 0")
	}
}

func TestNames(t *testing.T) {
	if !strings.HasPrefix(NewBSC(0.25).Name(), "bsc") {
		t.Error("BSC name")
	}
	if (Noiseless{}).Name() != "noiseless" {
		t.Error("noiseless name")
	}
	if !strings.HasPrefix(NewHeterogeneous(0, 0.1).Name(), "heterogeneous") {
		t.Error("heterogeneous name")
	}
	if !strings.Contains(NewCounting(Noiseless{}).Name(), "noiseless") {
		t.Error("counting name should mention inner channel")
	}
}

// Property: for any channel the output is always a valid bit, and the
// noiseless channel is the identity.
func TestQuickTransmitValidBit(t *testing.T) {
	r := rng.New(6)
	chans := []Channel{NewBSC(0.49), NewBSC(0), NewHeterogeneous(0, 0.49), Noiseless{}, NewCounting(NewBSC(0.3))}
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

func TestUniformNoiseCapability(t *testing.T) {
	if p := interface{}(NewBSC(0.17)).(UniformNoise).UniformFlipProb(); p != 0.17 {
		t.Fatalf("BSC uniform flip prob %v", p)
	}
	if p := interface{}(Noiseless{}).(UniformNoise).UniformFlipProb(); p != 0 {
		t.Fatalf("noiseless uniform flip prob %v", p)
	}
	if _, ok := interface{}(NewHeterogeneous(0, 0.4)).(UniformNoise); ok {
		t.Fatal("heterogeneous must not claim uniform noise")
	}
	if _, ok := interface{}(NewCounting(NewBSC(0.1))).(UniformNoise); ok {
		t.Fatal("counting must not claim uniform noise (it would bypass its accounting)")
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
