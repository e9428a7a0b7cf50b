// Package rng is the simulator's one source of randomness: the keyed
// counter-mode schedule (keyed.go), where every draw is addressed by
// (run key, stream, round, index, counter), and the exact binomial
// sampler the engine needs to collapse a run of Bernoulli trials into one
// draw.
//
// Determinism is a hard requirement of the repository: every simulation is
// a pure function of (configuration, seed). The package therefore does not
// use math/rand's global state. RNG, the generator behind Binomial, is
// xoshiro256** seeded through SplitMix64, following the reference
// construction by Blackman and Vigna; outside this package it is seeded
// only from an addressed cell word (RNG.Reseed(cell.Uint64(i))), so a
// binomial is as much a function of its address as any other draw.
package rng

import "math/bits"

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use. The zero RNG is valid storage for Reseed: the
// kernels keep one on the stack and reseed it per addressed draw.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Reseed reinitializes the generator in place from seed, discarding its
// previous state, without allocating.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform integer in [0, n) using Lemire's unbiased
// multiply-shift rejection method. n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
