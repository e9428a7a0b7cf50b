package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-size log-linear histogram over uint64 observations
// (HDR-style: one octave per power of two, histSub linear sub-buckets per
// octave). Observe is wait-free — two atomic adds per call, no
// allocation — and memory stays bounded no matter how many samples
// arrive. A bucket's upper bound is within 1/2^histSub ≈ 12.5% of every
// value it holds.
//
// Observations are integers (typically nanoseconds); the export scale set
// at registration converts them for the Prometheus exposition, which
// reports value*scale.
type Histogram struct {
	buckets [histSize]atomic.Uint64
	sum     atomic.Uint64
	scale   float64
}

const (
	// histSub sub-bucket bits: 2^histSub linear buckets per octave.
	histSub = 3
	// Values below 2^(histSub+1) index their own exact bucket; above,
	// bucketIndex maps each (octave, sub-bucket) pair to one slot.
	histSize = (64-histSub)<<histSub + 1<<histSub
)

func newHistogram(scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return &Histogram{scale: scale}
}

// bucketIndex maps an observation to its bucket. Small values (< 16 with
// histSub=3) are exact; larger values share a bucket with everything that
// agrees on the top histSub+1 bits.
func bucketIndex(v uint64) int {
	if v < 1<<(histSub+1) {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 - histSub // ≥ 1
	return int(uint64(exp+1)<<histSub | v>>exp&(1<<histSub-1))
}

// bucketUpper returns the inclusive upper bound of bucket i, pre-scale.
func bucketUpper(i int) uint64 {
	if i < 1<<(histSub+1) {
		return uint64(i)
	}
	exp := uint(i>>histSub) - 1
	m := uint64(i & (1<<histSub - 1))
	return (1<<histSub+m+1)<<exp - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// snapshot copies the buckets and returns (buckets, count, sum) with count
// derived from the buckets so the exposition's _count equals the sum of
// its _bucket increments even mid-update.
func (h *Histogram) snapshot() (snap [histSize]uint64, count uint64, sum float64) {
	for i := range snap {
		snap[i] = h.buckets[i].Load()
		count += snap[i]
	}
	return snap, count, float64(h.sum.Load()) * h.scale
}
