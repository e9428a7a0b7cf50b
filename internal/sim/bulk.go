package sim

// The batched collection and delivery interface. The per-agent interface
// (Protocol.Send/Receive) costs Θ(n) interface dispatches per round even
// in the protocol's quiescent "breathe" phases. Protocols that implement
// BulkProtocol report their active-sender set once per round (cached per
// phase on the protocol side) and take deliveries in bulk or straight
// into packed per-agent accumulators, so a round costs O(messages) — and
// the tree regime (keyed.go) can resolve exchangeable rounds bucket by
// bucket without any per-message call. Which interface collects and
// delivers is Config.Kernel's choice; the keyed draws, and so the
// results, are the same either way.

import (
	"slices"

	"breathe/internal/channel"
)

// BulkProtocol is an optional extension of Protocol enabling the batched
// kernel. Implementations must behave identically under per-agent and
// batched execution; the engine chooses the mechanism.
type BulkProtocol interface {
	Protocol

	// BulkEnabled reports whether the batched kernel may be used for this
	// instance (called once per run, after Setup). Protocols whose sender
	// set can change mid-phase (e.g. ablated variants) return false.
	BulkEnabled() bool

	// BulkSenders returns the agents that transmit in round, grouped by
	// the bit they send. The slices are owned by the protocol and valid
	// until the next BulkSenders call; the engine does not mutate them.
	BulkSenders(round int) (zeros, ones []int32)

	// BulkDeliver notifies the protocol of all accepted deliveries of the
	// round: receivers[i] accepted bits[i]. Equivalent to one Receive call
	// per element, in order.
	BulkDeliver(receivers []int32, bits []channel.Bit, round int)

	// BulkAccumulate reports whether, in the given round, a delivery is
	// equivalent to acc[receiver] += bit<<32 | 1 on the array returned by
	// BulkAccumulators — i.e. reception is pure counting with no
	// per-message side effects. The tree regime requires it.
	BulkAccumulate(round int) bool

	// BulkAccumulators exposes the per-agent packed reception counters
	// (ones in the high 32 bits, total in the low 32). May return nil if
	// the protocol does not support accumulator delivery; the engine then
	// always delivers through BulkDeliver. In parallel tree rounds the
	// engine's workers write disjoint bucket ranges of the array
	// concurrently (agent a is only ever touched by the worker resolving
	// a's bucket), so no protocol synchronization is needed.
	BulkAccumulators() []uint64
}

const (
	// maxBulkN bounds the population the batched kernel accepts (2²⁸).
	// Beyond it KernelAuto runs the per-agent collection mechanism; the
	// regime accounting records those rounds as PerAgent.
	maxBulkN = 1 << 28
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

// denseRoundEnd books a tree round's aggregate accounting: every placed
// message that was not the accepted one of its slot is a collision loss
// (including all arrivals at crashed receivers).
func (e *Engine) denseRoundEnd(placed int, accepted int64) {
	e.accepted += accepted
	e.dropped += int64(placed) - accepted
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
