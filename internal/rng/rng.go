// Package rng provides a deterministic, splittable pseudo-random number
// generator together with the exact discrete samplers the simulator needs
// (Bernoulli, binomial).
//
// Determinism is a hard requirement of the repository: every simulation is
// a pure function of (configuration, seed). The package therefore does not
// use math/rand's global state. The core generator is xoshiro256** seeded
// through SplitMix64, following the reference construction by Blackman and
// Vigna. Splitting derives an independent stream by drawing a fresh
// SplitMix64 seed from the parent, so the engine, the noise channel and the
// protocol each consume their own stream and remain reproducible even when
// one of them changes how many variates it draws.
package rng

// RNG is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; callers that need parallelism should Split first.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding and splitting.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes the generator in place to exactly the state
// New(seed) produces, without allocating. The simulator's sharded kernel
// reseeds one resident generator per shard per round from the master
// stream, so the per-round substreams cost no heap traffic.
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

// Split returns a new generator whose stream is independent of the
// receiver's future output. The receiver is advanced.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
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
	x := r.Uint64()
	hi, lo := mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, n)
		}
	}
	_ = lo
	return hi
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint32n returns a uniform uint32 in [0, n) using the 32-bit variant of
// Lemire's multiply-shift rejection method. It consumes one 64-bit draw
// per attempt (rejections are rare, at most n/2³²) and is measurably
// cheaper than Uint64n on the simulator's batched hot paths, where the
// recipient range always fits in 32 bits. n must be positive.
func (r *RNG) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	m := uint64(uint32(r.Uint64())) * uint64(n)
	if uint32(m) < n {
		thresh := -n % n
		for uint32(m) < thresh {
			m = uint64(uint32(r.Uint64())) * uint64(n)
		}
	}
	return uint32(m >> 32)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
