package sim

// The kernels' shared constants and tree scratch, and the crash filter of
// the bulk sender lists. The engine collects every round through
// Protocol.BulkSenders, so a round costs O(messages), and delivers each
// accepted message through Receive — or, in a tree round, straight into
// the packed array the protocol's Accumulators answer hands over, so the
// tree regime (keyed.go) resolves exchangeable rounds bucket by bucket
// without any per-message call. The keyed draws, and so the results, are
// those a Send scan would give (simtest.PerAgent checks it).

import "slices"

const (
	// denseMinMessages gates the tree regime: below it the scatter regime
	// is at least as fast and the per-bucket sampling overhead is not
	// worth amortizing.
	denseMinMessages = 256
	// shardMinN and shardMinMessages gate parallel tree execution: a tree
	// round runs its buckets in parallel (and is accounted Sharded) iff
	// n ≥ shardMinN and it carries at least shardMinMessages messages.
	// Below either the serial bucket sweep beats a goroutine barrier. Both
	// depend only on n and the round's message count, never on the worker
	// count.
	shardMinN        = 4 * denseWidth
	shardMinMessages = 1 << 13
	// denseShift sets the tree's receiver-bucket width (8192 slots ×
	// 4 bytes = one L1-sized inbox slice per bucket).
	denseShift = 13
	denseWidth = 1 << denseShift
)

// denseRun is one tree worker's per-round scratch: the bucket's pre-filled
// draws, the spill list of arrivals beyond a saturated slot counter, the
// fix list, and the worker's accepted count.
type denseRun struct {
	drawBuf  []uint64
	spill    []denseSpill
	deferred []int32
	accepted int64
	// Pad to 128 bytes so adjacent worker contexts in keyedState.runs do
	// not share cache lines: every bucket updates accepted, and false
	// sharing between concurrently running workers would bleed away the
	// multi-core speedup.
	_ [48]byte
}

// denseSpill records arrivals beyond the packed 16-bit counter of a tree
// inbox slot — unreachable in practice (arrivals per slot are ≈Poisson(1))
// but required for exactness.
type denseSpill struct {
	slot        int32
	count, ones uint32
}

// filterLive appends to dst the senders whose bit in the crash set words
// is clear.
func filterLive(dst, senders []int32, words []uint64) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(senders))[:n+len(senders)]
	return dst[:n+copyLive(dst[n:], senders, words)]
}

// copyLive copies the senders whose bit in words is clear to the front of
// dst, in order, and returns their count: every sender is written, and the
// count advances only past a live one.
//
//breathe:leaf the crash filter of the bulk sender lists
func copyLive(dst, senders []int32, words []uint64) int {
	dst = dst[:len(senders)]
	w := 0
	for _, a := range senders {
		dst[w] = a
		w += int(crashBit(words, uint(a)) ^ 1)
	}
	return w
}

func (d *denseRun) spillAdd(slot int32, bit uint32) {
	for i := range d.spill {
		if d.spill[i].slot == slot {
			d.spill[i].count++
			d.spill[i].ones += bit
			return
		}
	}
	d.spill = append(d.spill, denseSpill{slot: slot, count: 1, ones: bit})
}
