package channel

import (
	"testing"

	"breathe/internal/rng"
)

// TestZeroFlipBSCDrawsNothing pins that a BSC with flip probability 0 —
// FromEpsilon(0.5), the noiseless boundary — consumes no RNG draws:
// Transmit short-circuits through Bernoulli(0). A draw per bit would shift
// every later draw of the test reference's noise stream.
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
