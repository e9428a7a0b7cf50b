// Package stats is a fixture consumer outside the deterministic core: the
// stream rules do not apply here, the seeding rule does.
package stats

import "breathe/internal/rng"

// trial seeds one generator per trial from the trial's cell word.
func trial(k rng.Key, t uint64) uint64 {
	var r rng.RNG
	r.Reseed(k.Cell(rng.StreamSchedule, 0).Uint64(t)) // ok: a cell word
	return r.Uint64()
}

// fixed seeds from a constant: a sequential stream outside the schedule.
func fixed() uint64 {
	var r rng.RNG
	r.Reseed(42) // want `RNG.Reseed seeds from 42, not a Cell.Uint64 word`
	return r.Uint64()
}
