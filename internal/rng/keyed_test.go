package rng

import "testing"

// chiSquared256 buckets the top byte of each word into 256 bins and
// returns the chi-squared statistic against the uniform expectation.
func chiSquared256(words []uint64) float64 {
	var bins [256]int
	for _, w := range words {
		bins[w>>56]++
	}
	exp := float64(len(words)) / 256
	var chi2 float64
	for _, c := range bins {
		d := float64(c) - exp
		chi2 += d * d / exp
	}
	return chi2
}

// chi2Bound255 is a generous acceptance bound for 255 degrees of freedom:
// the statistic's mean is 255 with standard deviation ≈ 22.6, so 360 is
// ≈ 4.6σ out (p < 10⁻⁵). The draws are deterministic (fixed seeds), so the
// test is exact, not flaky: it fails only if the generator changes.
const chi2Bound255 = 360.0

// TestKeyedUniformityPerStream checks chi-squared uniformity of every
// subsystem stream's word sequence.
func TestKeyedUniformityPerStream(t *testing.T) {
	streams := []Stream{
		StreamPlacement, StreamCollision, StreamNoise, StreamDrop,
		StreamSplit, StreamCrash, StreamSchedule, StreamOffsets,
		StreamPopulation, StreamTwoStep, StreamDirectSource,
	}
	k := NewKey(12345)
	words := make([]uint64, 1<<16)
	for _, s := range streams {
		c := k.Cell(s, 7)
		c.Fill(words, 0)
		if chi2 := chiSquared256(words); chi2 > chi2Bound255 {
			t.Errorf("stream %d: chi2 = %.1f > %.1f", s, chi2, chi2Bound255)
		}
	}
}

// TestStreamValuesPinned: a stream's value is part of every address it
// makes, so retiring a stream leaves a blank slot and new streams append.
func TestStreamValuesPinned(t *testing.T) {
	got := []Stream{
		StreamPlacement, StreamCollision, StreamNoise, StreamDrop,
		StreamSplit, StreamCrash, StreamSchedule, StreamOffsets,
		StreamPopulation, StreamTwoStep, StreamDirectSource,
	}
	want := []Stream{1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stream %d has value %d, want %d", i, got[i], want[i])
		}
	}
}

// TestKeyedCrossStreamIndependence checks that two streams read at the
// same addresses are independent: the joint distribution of their top
// nibbles over 16×16 bins must be uniform.
func TestKeyedCrossStreamIndependence(t *testing.T) {
	k := NewKey(99)
	pairs := [][2]Stream{
		{StreamPlacement, StreamCollision},
		{StreamNoise, StreamDrop},
		{StreamSchedule, StreamOffsets},
		{StreamCrash, StreamPopulation},
		{StreamTwoStep, StreamDirectSource},
	}
	const n = 1 << 16
	for _, pr := range pairs {
		ca, cb := k.Cell(pr[0], 3), k.Cell(pr[1], 3)
		var bins [256]int
		for i := uint64(0); i < n; i++ {
			a, b := ca.Uint64(i)>>60, cb.Uint64(i)>>60
			bins[a<<4|b]++
		}
		exp := float64(n) / 256
		var chi2 float64
		for _, c := range bins {
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > chi2Bound255 {
			t.Errorf("streams %v: joint chi2 = %.1f > %.1f", pr, chi2, chi2Bound255)
		}
	}
}

// TestKeyedStreamIsolation is the property the keyed design exists for:
// drawing any number of extra variates from one subsystem stream leaves
// every other stream's sequence bit-identical. (A sequential generator
// shared by several subsystems cannot satisfy this; the keyed generator
// satisfies it by construction, and this test documents the contract.)
func TestKeyedStreamIsolation(t *testing.T) {
	k := NewKey(2024)
	snapshot := func() map[Stream][]uint64 {
		m := make(map[Stream][]uint64)
		for _, s := range []Stream{StreamCollision, StreamNoise, StreamSchedule} {
			c := k.Cell(s, 5)
			seq := make([]uint64, 64)
			c.Fill(seq, 0)
			m[s] = seq
		}
		return m
	}
	before := snapshot()

	// Consume heavily from StreamPlacement: raw words, bounded draws with
	// their rejection retries, sub-cell derivations across rounds.
	cp := k.Cell(StreamPlacement, 5)
	var sink uint64
	for i := uint64(0); i < 4096; i++ {
		sink ^= cp.Uint64(i)
		sink += uint64(cp.Uint32n(i, 12345))
		sink ^= cp.Sub(i).Uint64(0)
	}
	for r := uint64(0); r < 64; r++ {
		sink ^= k.Cell(StreamPlacement, r).Uint64(0)
	}
	_ = sink

	after := snapshot()
	for s, seq := range before { //breathe:order-ok each stream is asserted independently
		for i, w := range seq {
			if after[s][i] != w {
				t.Fatalf("stream %d word %d changed after extra placement draws", s, i)
			}
		}
	}
}

// TestKeyedBoundedDraws checks range, determinism and uniformity of the
// addressed bounded draws.
func TestKeyedBoundedDraws(t *testing.T) {
	k := NewKey(7)
	c := k.Cell(StreamCollision, 11)
	const n = 1 << 16
	var bins [7]int
	for i := uint64(0); i < n; i++ {
		v := c.Uint64n(i, 7)
		if v >= 7 {
			t.Fatalf("Uint64n(%d, 7) = %d out of range", i, v)
		}
		if uint64(c.Uint32n(i, 7)) >= 7 {
			t.Fatalf("Uint32n out of range at %d", i)
		}
		if v != c.Uint64n(i, 7) {
			t.Fatalf("Uint64n not deterministic at address %d", i)
		}
		bins[v]++
	}
	exp := float64(n) / 7
	var chi2 float64
	for _, cnt := range bins {
		d := float64(cnt) - exp
		chi2 += d * d / exp
	}
	// 6 degrees of freedom: mean 6, sd ≈ 3.5; 40 is far out (p < 10⁻⁶).
	if chi2 > 40 {
		t.Errorf("Uint64n(·, 7) chi2 = %.1f > 40", chi2)
	}
}

// TestKeyedFillMatchesUint64 pins Fill to the per-counter reads, including
// a non-zero start offset.
func TestKeyedFillMatchesUint64(t *testing.T) {
	c := NewKey(1).Cell(StreamPlacement, 0)
	buf := make([]uint64, 100)
	c.Fill(buf, 17)
	for i, w := range buf {
		if want := c.Uint64(17 + uint64(i)); w != want {
			t.Fatalf("Fill[%d] = %#x, Uint64(%d) = %#x", i, w, 17+i, want)
		}
	}
}

// TestKeyedDistinctness samples cells across seeds, streams, rounds and
// sub-derivations and checks for word collisions — a coarse avalanche
// check on the derivation chain.
func TestKeyedDistinctness(t *testing.T) {
	seen := make(map[uint64]string, 1<<14)
	add := func(v uint64, where string) {
		if prev, dup := seen[v]; dup {
			t.Fatalf("collision: %s and %s both produced %#x", prev, where, v)
		}
		seen[v] = where
	}
	for seed := uint64(0); seed < 4; seed++ {
		k := NewKey(seed)
		for _, s := range []Stream{StreamPlacement, StreamCollision, StreamSplit} {
			for round := uint64(0); round < 8; round++ {
				c := k.Cell(s, round)
				for i := uint64(0); i < 16; i++ {
					add(c.Uint64(i), "cell counter")
				}
				for j := uint64(0); j < 8; j++ {
					add(c.Sub(j).Uint64(0), "sub cell")
				}
			}
		}
	}
}
