// Package rng is a miniature stand-in for the real keyed generator: one
// leaf-annotated draw and one that is not.
package rng

// Cell is one addressed block of draws.
type Cell struct{ base uint64 }

// Uint64 returns draw i of the cell.
//
//breathe:leaf inlined into kernel loops
func (c Cell) Uint64(i uint64) uint64 { return mix(c.base + i) }

// Uint64n returns draw i reduced mod n; it may retry, so it is no leaf.
func (c Cell) Uint64n(i, n uint64) uint64 {
	x := c.Uint64(i)
	for x%n == 0 {
		x = c.Uint64(x)
	}
	return x % n
}

// mix is the finalizer.
//
//breathe:leaf inlined into Uint64
func mix(z uint64) uint64 { return z ^ z>>31 }
