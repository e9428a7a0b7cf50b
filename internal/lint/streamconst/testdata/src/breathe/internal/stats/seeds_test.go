package stats

import "breathe/internal/rng"

// Tests may seed test inputs from constants.
func testInput() uint64 {
	var r rng.RNG
	r.Reseed(7) // ok: test file
	return r.Uint64()
}
