package channel

import (
	"testing"

	"breathe/internal/rng"
)

// TestZeroFlipBSCDrawsNothing pins that a BSC with flip probability 0 —
// FromEpsilon(0.5), the honest form of the noiseless boundary — consumes
// no RNG draws, exactly like Noiseless: Transmit short-circuits through
// Bernoulli(0). A draw per bit would shift every later draw of the stream
// and break the ε = 0.5 ≡ Noiseless bit-identity.
func TestZeroFlipBSCDrawsNothing(t *testing.T) {
	bsc := FromEpsilon(0.5)
	if got := bsc.FlipProb(); got != 0 {
		t.Fatalf("FromEpsilon(0.5).FlipProb() = %v, want 0", got)
	}

	r := rng.New(7)
	for _, b := range []Bit{Zero, One, One, Zero, One} {
		if out := bsc.Transmit(b, r); out != b {
			t.Fatalf("Transmit flipped %v at p=0", b)
		}
	}

	// The stream must be untouched: the next draws equal a fresh stream's
	// first draws.
	fresh := rng.New(7)
	for i := 0; i < 4; i++ {
		if g, w := r.Uint64(), fresh.Uint64(); g != w {
			t.Fatalf("draw %d: p=0 BSC consumed RNG draws (got %d, want %d)", i, g, w)
		}
	}
}

// TestZeroFlipBSCMatchesNoiseless: both channels applied to the same
// stream leave bits and stream position identical.
func TestZeroFlipBSCMatchesNoiseless(t *testing.T) {
	bsc := Channel(FromEpsilon(0.5))
	nl := Channel(Noiseless{})
	rb, rn := rng.New(42), rng.New(42)
	for i, b := range []Bit{One, Zero, One} {
		if bsc.Transmit(b, rb) != nl.Transmit(b, rn) {
			t.Fatalf("bit %d differs between p=0 BSC and Noiseless", i)
		}
	}
	if rb.Uint64() != rn.Uint64() {
		t.Fatal("p=0 BSC and Noiseless left the RNG stream at different positions")
	}
}
