package sim

// The sparse regime: the tree round's third bucket executor.
//
// A swept tree round costs Θ(n) regardless of how many messages fly —
// every slot of every bucket is resolved. That floor is invisible at full
// blast and dominant in sparse-activity rounds: early rumor spreading,
// phase tails, crash-thinned populations. When the round's sender lists
// are short against n (k listed senders, k·64 < n), keyedTree runs the
// same round — the same drop thinning and split chain (treeSplit), the
// same bucket frame (keyedBucket) — but hands the buckets to the walker,
// which touches only what the round actually uses:
//
//   - it enters only the occupied buckets among those the split chain
//     reached (the chain stops at the last assigned message);
//   - within a bucket it resolves only the slots the placements hit,
//     tracked by a touched list instead of a full-bucket sweep.
//
// Every draw the walker makes is the same addressed draw the sweep would
// have made — placement words by word index, accept-one and noise by
// slot, deferred resolution by slot — and untouched slots are state-free
// by construction (their inbox word is zero, their accumulator delta is
// zero and a crash pass leaves a zero word zero, exactly as for the
// sweep's unoccupied slots). Results are therefore bit-identical with the
// sweep; sparse_test.go pins it across collection mechanisms, shard
// counts and crash plans. The walker leaves the tree inbox as it found
// it, all zero: it zeroes every slot it touched, live ones as they
// resolve and crashed ones as it compacts them out.
//
// Like the dense/sharded split, the choice (PathRounds.Sparse) is a
// fixed pure function of (k, n, message count, protocol answers), where
// k is the total length of the round's BulkSenders lists before the
// crash filter — never of Config.Shards or how the senders were
// collected — so path counters agree byte-for-byte across every
// execution choice.

// sparseRegimeCutover is the fixed k-vs-n ratio of the sparse regime: a
// tree-eligible round is sparse when its k listed senders satisfy
// k·64 < n, i.e. under one sender per 64 agents the sweep visits ≥ 64
// slots per live message and the walker wins by a wide margin.
const sparseRegimeCutover = 64

// keyedWalkerOff is a test hook: when set, sparse rounds execute on the
// serial sweep instead of the walker. Results must be identical either
// way — that is the walker's contract, and sparse_test.go exercises it.
var keyedWalkerOff bool

// walkDropCrashed compacts the crashed receivers out of the walker's
// touched slots of the bucket inbox that starts at agent blo, zeroing
// their inbox words, and returns the number of live slots left at its
// front, in order. Like the scatter's pass it writes every slot back and
// masks every word; the count advances only past a live slot.
//
//breathe:leaf the walker's crash pass over the touched slots
func walkDropCrashed(inbox []uint32, touched []int32, words []uint64, blo uint) int {
	w := 0
	for _, ti := range touched {
		live := crashBit(words, blo+uint(ti)) ^ 1
		touched[w] = ti
		inbox[ti] &= -uint32(live)
		w += int(live)
	}
	return w
}

// sparseResolve is treeResolve over the touched slots only: words[j] is
// the collision word of slot touched[j], the word the full sweep reads
// at rbuf[touched[j]]. Every touched slot is occupied and live. Like the
// sweep, it zeroes each slot it resolves and leaves fix-list slots to
// keyedFix.
//
//breathe:leaf the walker's per-slot resolve; rejections and deferrals are listed for keyedFix
func sparseResolve(inbox []uint32, touched []int32, words, acc []uint64, fix *[denseWidth]int32, thresh uint64) (nf int) {
	words = words[:len(touched)]
	for j, i := range touched {
		v := inbox[i]
		cnt := uint64(v & 0xffff)
		on := uint64(v >> 16)
		x := words[j]
		prod := (x & 2047) * cnt
		fixup := (prod&2047 - cnt) >> 63
		fix[nf&(denseWidth-1)] = i // nf < len(touched) ≤ denseWidth
		nf += int(fixup)
		bit := (prod>>11-on)>>63 ^ (x>>11-thresh)>>63
		acc[i] += (bit<<32 | 1) &^ -fixup
		inbox[i] = v & -uint32(fixup)
	}
	return nf
}
