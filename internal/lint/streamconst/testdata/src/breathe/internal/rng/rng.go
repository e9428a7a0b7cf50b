// Package rng is a miniature stand-in for the real keyed generator:
// just enough surface for the analyzers' type-based checks.
package rng

// Stream labels an independent draw schedule.
type Stream uint64

// The registered streams.
const (
	StreamPlacement Stream = 1 + iota
	StreamCollision
	StreamSchedule
	StreamNoise
)

// Key is the run's master key.
type Key struct{ h uint64 }

// Cell addresses the (stream, round) block of the schedule.
func (k Key) Cell(s Stream, round uint64) Cell {
	return Cell{uint64(s) ^ round ^ k.h}
}

// Cell is one addressed block of draws.
type Cell struct{ base uint64 }

// Uint64 returns draw i of the cell.
func (c Cell) Uint64(i uint64) uint64 { return c.base + i }

// Uint64n returns draw i reduced mod n.
func (c Cell) Uint64n(i, n uint64) uint64 { return c.Uint64(i) % n }

// Sub derives a child cell.
func (c Cell) Sub(j uint64) Cell { return Cell{c.base ^ j} }

// RNG is the cell-seeded generator.
type RNG struct{ s uint64 }

// Reseed restarts the generator from seed.
func (r *RNG) Reseed(seed uint64) { r.s = seed }

// Uint64 returns the next draw.
func (r *RNG) Uint64() uint64 { r.s++; return r.s }

// Float64 returns the next draw in [0, 1).
func (r *RNG) Float64() float64 { return float64(r.Uint64()%1024) / 1024 }

// Uint64n returns a draw in [0, n).
func (r *RNG) Uint64n(n uint64) uint64 { return r.Uint64() % n }
