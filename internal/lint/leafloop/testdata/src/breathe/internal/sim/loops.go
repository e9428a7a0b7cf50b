// Package sim exercises the leafloop rules, each with a case that passes
// and a case that is reported.
package sim

import (
	"math/bits"
	"strconv"

	"breathe/internal/rng"
)

type bit uint8

type source interface{ Next() uint64 }

// b2u is a local leaf helper.
//
//breathe:leaf inlined into the loops below
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// helper is not annotated.
func helper(x uint64) uint64 { return x + 1 }

// clean uses everything a leaf function may use: allowed builtins,
// conversions, math/bits, a local leaf and a leaf of a dependency.
//
//breathe:leaf the reference loop
func clean(dst []uint64, c rng.Cell) int {
	n := min(len(dst), cap(dst))
	for i := 0; i < n; i++ {
		hi, _ := bits.Mul64(c.Uint64(uint64(i)), uint64(n))
		dst[i] = max(hi, uint64(bit(b2u(hi > 3))))
	}
	return n
}

// badCalls breaks the call rules.
//
//breathe:leaf a loop with forbidden calls
func badCalls(dst []uint64, c rng.Cell, s source, f func() uint64) {
	for i := range dst {
		dst[i] = helper(dst[i])                // want `leaf function badCalls calls helper, which is not annotated //breathe:leaf`
		dst[i] += c.Uint64n(uint64(i), 3)      // want `leaf function badCalls calls breathe/internal/rng.Cell.Uint64n, which is not annotated //breathe:leaf`
		dst[i] += s.Next()                     // want `leaf function badCalls calls interface method Next`
		dst[i] += f()                          // want `leaf function badCalls calls a function value`
		dst[i] += uint64(len(strconv.Itoa(i))) // want `leaf function badCalls calls strconv.Itoa, which is not annotated //breathe:leaf`
	}
}

// builtins breaks the builtin rules.
//
//breathe:leaf a loop with forbidden builtins
func builtins(dst []uint64) []uint64 {
	buf := make([]uint64, 4)  // want `leaf function builtins calls builtin make`
	dst = append(dst, buf...) // want `leaf function builtins calls builtin append`
	copy(dst, buf)            // want `leaf function builtins calls builtin copy`
	if len(dst) == 0 {
		panic("empty") // want `leaf function builtins calls builtin panic`
	}
	return dst
}

// control breaks the closure, go and defer rules.
//
//breathe:leaf a loop with forbidden control flow
func control(dst []uint64, done chan struct{}) {
	add := func(i int) { dst[i]++ } // want `leaf function control contains a closure`
	add(0)                          // want `leaf function control calls a function value`
	go b2u(true)                    // want `leaf function control starts a goroutine`
	defer close(done)               // want `leaf function control defers a call` `leaf function control calls builtin close`
}

// unexplained carries the annotation without a reason.
//
//breathe:leaf
func unexplained(x uint64) uint64 { // want `//breathe:leaf on unexplained needs a reason`
	return x
}

// notLeaf is not annotated, so none of this is checked.
func notLeaf(dst []uint64) []uint64 {
	defer func() {}()
	return append(dst, helper(1))
}
