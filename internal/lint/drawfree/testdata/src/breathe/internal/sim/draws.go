// Package sim exercises the drawfree proof: direct draws, transitive
// chains, cross-package calls, and the dynamic calls that defeat a
// static graph.
package sim

import (
	"sort"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

type engine struct {
	key    rng.Key
	r      *rng.RNG
	cb     func() int
	cancel <-chan struct{}
}

type noise interface{ Flip() int }

// pollCancel inspects the cancel channel and nothing else.
//
//breathe:drawfree
func (e *engine) pollCancel() bool {
	select {
	case <-e.cancel:
		return true
	default:
		return false
	}
}

// hit draws directly.
//
//breathe:drawfree
func (e *engine) hit() uint64 { // want `engine.hit is annotated //breathe:drawfree but draws rng.RNG.Uint64`
	return e.r.Uint64()
}

// quiet draws two hops down: quiet -> advance -> scatter -> the cell.
//
//breathe:drawfree
func (e *engine) quiet() { // want `engine.quiet is annotated //breathe:drawfree but calls engine.advance, which calls engine.scatter, which draws rng.Cell.Uint64`
	e.advance()
}

func (e *engine) advance() { e.scatter(1) }

func (e *engine) scatter(round uint64) uint64 {
	return e.key.Cell(rng.StreamPlacement, round).Uint64(0)
}

// bulk draws a block of addressed words: the bulk primitive is a draw
// like the per-word one.
//
//breathe:drawfree
func bulk(c rng.Cell, out []uint64, idx []int32) { // want `bulk is annotated //breathe:drawfree but draws rng.Cell.Words`
	c.Words(out, idx)
}

// transmit crosses a package boundary: channel.Flip's verdict arrives
// as a fact.
//
//breathe:drawfree
func (e *engine) transmit() bool { // want `engine.transmit is annotated //breathe:drawfree but calls breathe/internal/channel.Flip.*which draws rng.RNG.Float64`
	return channel.Flip(e.r)
}

// shortCircuit rides the proven p = 0 path.
//
//breathe:drawfree
func (e *engine) shortCircuit() bool {
	return channel.Zero(e.r)
}

// viaValue calls a stored function value: nothing static to chase.
//
//breathe:drawfree
func (e *engine) viaValue() int { // want `engine.viaValue is annotated //breathe:drawfree but cannot be proven: calls a function value`
	return e.cb()
}

// viaIface calls through an interface: every implementation would need
// the proof, so the call is unprovable.
//
//breathe:drawfree
func viaIface(n noise) int { // want `viaIface is annotated //breathe:drawfree but cannot be proven: calls interface method Flip`
	return n.Flip()
}

// holdsDraw takes a draw method as a value: as good as drawing.
//
//breathe:drawfree
func (e *engine) holdsDraw() func() uint64 { // want `engine.holdsDraw is annotated //breathe:drawfree but draws rng.RNG.Uint64`
	return e.r.Uint64
}

// usesStd calls the standard library, which cannot reach the rng
// package: assumed clean.
//
//breathe:drawfree
func usesStd(xs []int) {
	sort.Ints(xs)
}
