package sim

// The keyed sparse regime: event-driven execution of tree rounds.
//
// A dense tree round costs Θ(n) regardless of how many messages fly —
// every bucket's split is drawn, every slot of every bucket is resolved.
// That floor is invisible at full blast and dominant in sparse-activity
// rounds: early rumor spreading, phase tails, crash-thinned populations.
// When a protocol declares its active-set size up front (SenderIndex)
// and the declared k is small against n, the engine runs the same tree
// round with a walker that touches only what the round actually uses:
//
//   - the conditional-binomial split chain stops as soon as every
//     message is assigned (rng.Binomial(0, p) draws nothing, and each
//     bucket's variates come from its own addressed sub-cell, so the
//     skipped tail is deterministically all-zero);
//   - only occupied buckets are entered, and within a bucket only the
//     slots the placements actually hit are resolved, tracked by a
//     touched list instead of a full-bucket sweep.
//
// Every draw the walker makes is the same addressed draw the dense
// sweep would have made — placement words by word index, accept-one and
// noise by slot, deferred resolution by slot — and untouched slots are
// state-free by construction (their inbox word is zero, their
// accumulator delta is zero and a crash pass leaves a zero word zero,
// exactly as for the dense sweep's unoccupied slots). Results are
// therefore bit-identical with keyedTree; sparse_test.go pins it across
// kernels, shard counts and crash plans. The walker shares the tree's
// inbox and leaves it as it found it, all zero: it zeroes every slot it
// touched, live ones as they resolve and crashed ones as it compacts
// them out.
//
// Like the dense/sharded split, the choice (PathRounds.Sparse) is a
// fixed pure function of (declared k, n, message count, protocol
// capability) — never of Config.Kernel or any performance knob — so
// path counters agree byte-for-byte across every execution choice.

import (
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// SenderIndex is an optional BulkProtocol capability: the protocol
// maintains its active set incrementally and can report its size in O(1)
// (or O(active classes)) instead of being scanned. ActiveSenders(round)
// must equal the total length of the BulkSenders(round) lists — the
// declared sender set before any crash filtering — whenever BulkEnabled
// holds. The engine uses the declared size only to pick the round's
// sampling regime, identically under every kernel; it never replaces the
// sender lists themselves.
type SenderIndex interface {
	ActiveSenders(round int) int
}

// sparseRegimeCutover is the fixed k-vs-n ratio of the sparse regime: a
// tree-eligible round is sparse when the declared active set satisfies
// k·64 < n, i.e. under one sender per 64 agents the dense sweep visits
// ≥ 64 slots per live message and the walker wins by a wide margin.
const sparseRegimeCutover = 64

// sparseBucket records one occupied bucket of a sparse round's split:
// bucket j received c0 zero-messages and c1 one-messages.
type sparseBucket struct {
	j, c0, c1 int32
}

// sparseRound is the sparse regime's predicate for a tree-eligible round
// (see stepKeyed): a pure function of the declared active-set size and
// n, independent of kernel and shard count. It both counts the round as
// sparse and has the walker execute it.
func (e *Engine) sparseRound(declared int) bool {
	return declared >= 0 && int64(declared)*sparseRegimeCutover < int64(e.cfg.N)
}

// keyedWalkerOff is a test hook: when set, sparse rounds execute on the
// dense tree instead of the walker. Results must be identical either way
// — that is the walker's contract, and sparse_test.go exercises it.
var keyedWalkerOff bool

// keyedSparse executes one tree round by walking only its active part:
// the split chain up to the last message, then the occupied buckets'
// touched slots. Draw-for-draw identical to keyedTree + keyedBucket —
// every cell, counter and retry below mirrors a line there.
func (e *Engine) keyedSparse(m0, m1, round int) {
	k := e.keyed
	k.openTree(e.cfg.N)

	if q := e.cfg.DropProb; q > 0 {
		cDrop := e.key.Cell(rng.StreamDrop, uint64(round)) //breathe:stream-ok sparse walker and dense tree are alternative executors of the same round; stepKeyed runs exactly one, with identical addressing
		var rr rng.RNG
		rr.Reseed(cDrop.Uint64(0))
		d0 := rr.Binomial(m0, q)
		rr.Reseed(cDrop.Uint64(1))
		d1 := rr.Binomial(m1, q)
		e.dropped += int64(d0 + d1)
		m0 -= d0
		m1 -= d1
	}
	placed := m0 + m1

	// The same conditional-binomial chain as keyedTree, stopped at the
	// last assigned message: every remaining bucket's Binomial(0, ·)
	// returns zero without touching its sub-cell, so the tail is free
	// and deterministically empty.
	cSplit := e.key.Cell(rng.StreamSplit, uint64(round)) //breathe:stream-ok sparse walker and dense tree are alternative executors of the same round; stepKeyed runs exactly one, with identical addressing
	nB := k.buckets
	rem0, rem1 := m0, m1
	slotsLeft := e.cfg.N
	occ := k.sparseOcc[:0]
	for j := 0; j < nB && rem0+rem1 > 0; j++ {
		bsize := denseWidth
		if (j+1)*denseWidth > e.cfg.N {
			bsize = e.cfg.N - j*denseWidth
		}
		var c0, c1 int
		if bsize == slotsLeft {
			c0, c1 = rem0, rem1
		} else {
			pb := float64(bsize) / float64(slotsLeft)
			cs := cSplit.Sub(uint64(j))
			var rr rng.RNG
			rr.Reseed(cs.Uint64(0))
			c0 = rr.Binomial(rem0, pb)
			rr.Reseed(cs.Uint64(1))
			c1 = rr.Binomial(rem1, pb)
		}
		rem0 -= c0
		rem1 -= c1
		slotsLeft -= bsize
		if c0+c1 > 0 {
			occ = append(occ, sparseBucket{int32(j), int32(c0), int32(c1)})
		}
	}
	k.sparseOcc = occ
	e.mark(telemetry.PhasePlacement)

	// Occupied buckets execute serially: the whole point of the regime
	// is that there is too little work to shard.
	d := &k.runs[0]
	d.accepted = 0
	for _, ob := range occ {
		e.sparseWalkBucket(d, int(ob.j), int(ob.c0), int(ob.c1), round)
	}
	k.treeOpen = false
	e.mark(telemetry.PhaseCollision)
	e.denseRoundEnd(placed, d.accepted)
}

// sparseWalkBucket places and resolves one occupied bucket, visiting
// only the slots the placements hit. The placement draws replicate
// keyedBucket exactly — the bulk path pre-fills the bucket's placement
// words with Cell.Fill, whose word w is by definition cp.Uint64(w), so
// computing the words on demand consumes the same addresses — and the
// resolve of a touched slot i reads the same cc.Uint64(i) base word the
// full-bucket sweep reads at rbuf[i]. Untouched slots hold a zero word:
// the sweep adds zero to their accumulators, draws nothing fresh for
// them, and its crash pass, which only zeroes words, leaves them as they
// are, so skipping them is exact.
func (e *Engine) sparseWalkBucket(d *denseRun, j, c0, c1, round int) {
	k := e.keyed
	n := e.cfg.N
	blo := j * denseWidth
	bsize := denseWidth
	if blo+bsize > n {
		bsize = n - blo
	}

	d.spill = d.spill[:0]

	cp := e.key.Cell(rng.StreamPlacement, uint64(round)).Sub(uint64(j)) //breathe:stream-ok sparse walker and dense tree are alternative executors of the same round; stepKeyed runs exactly one, with identical addressing
	cc := e.key.Cell(rng.StreamCollision, uint64(round)).Sub(uint64(j)) //breathe:stream-ok sparse walker and dense tree are alternative executors of the same round; stepKeyed runs exactly one, with identical addressing

	inbox := k.treeInbox[blo : blo+bsize : blo+bsize]
	// The ones start past the zeros' draws: past their placement words
	// in a power-of-two bucket, past their per-message draws otherwise.
	off1 := uint64(c0)
	if bsize&(bsize-1) == 0 {
		off1 = uint64(c0+3) / 4
	}
	touched := d.walkPlace(blo, inbox, c0, 1, cp, 0, k.walked[:0])
	touched = d.walkPlace(blo, inbox, c1, 1<<16|1, cp, off1, touched)
	k.walked = touched

	if words := e.cfg.Failures.activeWords(round); words != nil {
		// Crashed receivers lose every arrival: zero and compact them out.
		touched = touched[:walkDropCrashed(inbox, touched, words, uint(blo))]
	}
	acc := k.accs[blo : blo+bsize : blo+bsize]
	fix := d.fixBuf()
	nf := sparseResolve(inbox, touched, acc, fix, cc, k.noiseThresh)
	d.accepted += int64(len(touched))
	e.keyedFix(d, cc, blo, inbox, acc, fix[:nf])
}

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

// sparseResolve is treeResolve over the touched slots only, with each
// slot's collision word computed on demand: cc.Uint64(i) is the word the
// full sweep reads at rbuf[i]. Every touched slot is occupied and live.
// Like the sweep, it zeroes each slot it resolves and leaves fix-list
// slots to keyedFix.
//
//breathe:leaf the walker's per-slot resolve; rejections and deferrals are listed for keyedFix
func sparseResolve(inbox []uint32, touched []int32, acc []uint64, fix *[denseWidth]int32, cc rng.Cell, thresh uint64) (nf int) {
	for _, i := range touched {
		v := inbox[i]
		cnt := uint64(v & 0xffff)
		on := uint64(v >> 16)
		x := cc.Uint64(uint64(i))
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
