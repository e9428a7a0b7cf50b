package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// poissonCount draws a Poisson(lambda) arrival count by inversion,
// capped at the inbox counter's 65535.
func poissonCount(r *rng.RNG, lambda float64) int {
	u := r.Float64()
	p := math.Exp(-lambda)
	k, cum := 0, p
	for u > cum && k < 0xffff {
		k++
		p *= lambda / float64(k)
		cum += p
	}
	return k
}

// resolveInbox builds a bucket inbox of size slots. A positive lambda
// gives Poisson(lambda) arrival counts with Binomial(cnt, 1/2) ones; zero
// gives adversarial words: counts 0, 1, 2047, 2048 and 65535, each with
// no ones, all ones or a share in between.
func resolveInbox(r *rng.RNG, size int, lambda float64) []uint32 {
	inbox := make([]uint32, size)
	for i := range inbox {
		var cnt, on int
		if lambda > 0 {
			cnt = poissonCount(r, lambda)
			on = r.Binomial(cnt, 0.5)
		} else {
			cnt = []int{0, 1, 2047, 2048, 0xffff}[r.Intn(5)]
			switch r.Intn(3) {
			case 1:
				on = cnt
			case 2:
				on = r.Intn(cnt + 1)
			}
		}
		inbox[i] = uint32(on)<<16 | uint32(cnt)
	}
	return inbox
}

// TestTreeResolveVectorMatchesScalar runs the sweep's resolve on the
// AVX-512 body (sweepResolve, with the scalar tail past the last multiple
// of 8) and on the scalar treeResolve alone over the same buckets, and
// demands the same fix-list length and entries, accepted count, inbox
// left behind and accumulators — and that neither writes past the bucket.
// Inboxes are Poisson(0.5, 1, 2) or adversarial words; the noise
// threshold is 0, 2⁵³ or that of p = 0.2, and every fourth slot's noise
// draw sits at the threshold or just below it; the bucket has 8192, 8 or
// 1696 slots or a length that is not a multiple of 8.
func TestTreeResolveVectorMatchesScalar(t *testing.T) {
	if !rng.Vector() {
		t.Skip("rng's AVX-512 gate is off: the sweep runs treeResolve alone")
	}
	const pad = 8
	r := rng.New(29)
	threshs := []uint64{0, 1 << 53, channel.FlipThreshold53(0.2)}
	for _, size := range []int{denseWidth, 8, 1696, 1, 7, 9, 1234, denseWidth - 1} {
		for _, lambda := range []float64{0.5, 1, 2, 0} {
			for _, thresh := range threshs {
				inbox := resolveInbox(r, size+pad, lambda)
				rbuf := make([]uint64, size+pad)
				acc := make([]uint64, size+pad)
				for i := range rbuf {
					rbuf[i] = r.Uint64()
					acc[i] = r.Uint64() >> 8
					if i%4 == 0 {
						// A noise draw right at the threshold, or one below.
						rbuf[i] = (min(thresh, 1<<53-1)-uint64(i%8/4))<<11 | rbuf[i]&2047
					}
				}
				inS, accS := slices.Clone(inbox), slices.Clone(acc)
				var fixS, fixV [denseWidth]int32
				nfS, accS64 := treeResolve(inS[:size], rbuf[:size], accS[:size], &fixS, thresh, 0, 0)
				nfV, accV64 := sweepResolve(inbox[:size], rbuf[:size], acc[:size], &fixV, thresh)

				name := fmt.Sprintf("size=%d lambda=%g thresh=%#x", size, lambda, thresh)
				if nfV != nfS || accV64 != accS64 {
					t.Fatalf("%s: vector nf %d accepted %d, scalar nf %d accepted %d", name, nfV, accV64, nfS, accS64)
				}
				if !slices.Equal(fixV[:nfV], fixS[:nfS]) {
					t.Fatalf("%s: fix lists differ:\nvector %v\nscalar %v", name, fixV[:nfV], fixS[:nfS])
				}
				for i := range inbox {
					if inbox[i] != inS[i] || acc[i] != accS[i] {
						t.Fatalf("%s: slot %d: vector inbox %#x acc %#x, scalar inbox %#x acc %#x",
							name, i, inbox[i], acc[i], inS[i], accS[i])
					}
				}
			}
		}
	}
}

// BenchmarkTreeResolve times the sweep's per-slot resolve over one
// 8192-slot bucket at Poisson(1) occupancy, on the scalar treeResolve and
// on the AVX-512 body. Each op resolves a fresh copy of the same inbox,
// and the copy is part of the op.
func BenchmarkTreeResolve(b *testing.B) {
	r := rng.New(1)
	inbox := resolveInbox(r, denseWidth, 1)
	rbuf := make([]uint64, denseWidth)
	rng.NewKey(1).Cell(rng.StreamCollision, 1).Fill(rbuf, 0)
	thresh := channel.FlipThreshold53(0.2)
	for _, leg := range []string{"scalar", "vector"} {
		b.Run(leg, func(b *testing.B) {
			if leg == "vector" && !rng.Vector() {
				b.Skip("rng's AVX-512 gate is off")
			}
			keyedResolveScalar = leg == "scalar"
			defer func() { keyedResolveScalar = false }()
			in := make([]uint32, denseWidth)
			acc := make([]uint64, denseWidth)
			var fix [denseWidth]int32
			for b.Loop() {
				copy(in, inbox)
				sweepResolve(in, rbuf, acc, &fix, thresh)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*denseWidth), "ns/slot")
		})
	}
}
