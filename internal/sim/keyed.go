package sim

// The keyed round kernel: one draw schedule for every execution strategy.
//
// The engine consumes no sequential stream; it addresses every draw
// through rng.Key cells:
//
//	placement   (StreamPlacement)  by sender id (scatter) / bucket (tree)
//	collision   (StreamCollision)  by receiver id / bucket slot
//	noise       (StreamNoise)      by receiver id (the tree co-samples
//	                               noise with the collision word)
//	drops       (StreamDrop)       by sender id / aggregate thinning
//	splits      (StreamSplit)      by receiver bucket
//
// Because a draw is a pure function of its address, the round's outcome is
// decided entirely by (seed, round, sender multiset) — never by which
// interface collects the senders, in what order buckets execute, or on
// how many goroutines. The engine therefore picks the *sampling regime*
// per round as a pure function of (message count, n, configuration,
// protocol answers):
//
//	quiet    no live senders
//	scatter  one placement draw per message, count-based accept-one
//	tree     exchangeable rounds (self-messages + accumulator delivery)
//	         at dense scale: exact per-bucket multinomial splits,
//	         in-bucket placement, branchless resolve
//
// A tree round is one code path (keyedTree: treeSplit, then keyedBucket
// per bucket) with three bucket executors, and the round is counted under
// the one that ran it: dense sweeps every bucket serially, sharded sweeps
// them on the workers, and sparse — a round whose sender lists are short
// (k listed senders, k·16 < n) — walks only the occupied buckets'
// touched slots, in O(k + messages) instead of Θ(n) (see sparse.go).
//
// Every protocol is collected in bulk, through BulkSenders. A Send scan
// would ask for the same addresses, so results are byte-identical either
// way; keyed_identity_test.go pins it by running each protocol again
// behind simtest.PerAgent, which answers BulkSenders with a Send scan.
// Delivery has one rule: a tree round adds into the array the protocol's
// Accumulators answer hands over, and a scatter round calls Receive once
// per accepted message, in first-touch order.
//
// There is no per-worker stream and no serial prologue: the tree's bucket
// decomposition is a pure function of n at denseWidth granularity, each
// bucket's draws are self-contained, and workers claim buckets off an
// atomic counter. Any bucket can be computed anywhere — a different
// goroutine, a different execution order, in principle a different machine
// — without exchanging generator state (keyed_shard_test.go).
//
// Every hot loop is split into a draw pass and an apply pass. The draw
// pass computes a block of cell words in one bulk call — Cell.Fill over
// consecutive counters (the tree's per-bucket placement and collision
// words, the sparse walker's placement words), Cell.Words over a list of
// addresses (the scatter's placement, drop, collision and noise words in
// blocks of scatterBlock senders or receivers, the walker's collision
// words over its touched slots) — which runs eight or sixteen hashes at
// once where the CPU has AVX-512. The draw pass asks for exactly the
// addresses the apply pass would have drawn one by one, and the apply
// pass consumes them in the same order, so first touches, resolves and
// every output bit are those of a loop that drew each word as it went.
// The apply passes — scatter placement and resolve, the tree's placement,
// the tree's and the sparse walker's per-slot resolve — are leaf
// functions whose common path makes no call, so Go keeps their loop state
// in registers; each carries //breathe:leaf, which breathevet's leafloop
// analyzer checks (the block drivers around them call Fill or Words and
// carry no mark). Every rare case leaves the loop: a placement or
// accept-one draw that may need Lemire's rejection test breaks out to
// the full Cell.Uint32n/Uint64n rule and the loop resumes at the next
// element; crash checks run as passes of their own, leaf loops over the
// crash plan's bitset, from its round on; a tree
// arrival at a saturated counter goes to the spill list; tree slots
// whose accept-one draw may be a Lemire rejection — every slot from 2048
// arrivals on among them — are listed branch-free in a fix list and
// resolved after the sweep (keyedFix). The tree sweep's resolve also has
// a vector body, treeResolveAVX512 (resolve_amd64.s), behind rng's
// AVX-512 gate — the one that switches Fill and Words: eight slots per
// step with treeResolve's exact arithmetic, the slots past a bucket's
// last multiple of 8 left to the scalar loop (sweepResolve).
// The scatter inbox is one uint64 per receiver — arrival count in the
// low 32 bits, ones in the high 32 (exact, since m ≤ n < 2³¹) — zeroed
// as each receiver resolves, so it needs no round stamps and each
// message costs one random access.
//
// The tree round has a second inbox, one uint32 per receiver: arrival
// count in the low 16 bits, ones in the high 16, padded to whole buckets
// (at most denseWidth−1 words that no slot addresses). It too is all-zero
// between rounds and carries no stamps — a slot is occupied exactly when
// its word is non-zero. The sweep zeroes each slot as it resolves it (a
// fix-list slot keeps its word until keyedFix reads it), the walker
// zeroes every slot it touched, and both crash passes zero the slots of
// crashed receivers. An arrival at a counter already at 65535 goes to
// the bucket's spill list.
//
// The sweep's placement (placeTree) reads each placement word once and
// does its four lane arrivals in order, into the bucket's window of the
// inbox viewed as a *[denseWidth]uint32. A slot is lane & mask, with the
// mask clamped to denseWidth−1, so no index is bounds-checked, and a
// power-of-two bucket smaller than denseWidth takes the same loop under
// its own mask. Messages go one at a time only up to the first word
// boundary and for the k mod 4 after the last.

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// keyedState holds the kernel's per-run capabilities and scratch.
// Allocated lazily on the first run of an engine; survives a Reset that
// keeps N.
type keyedState struct {
	// Per-run capabilities, refreshed by prepareKeyed: the channel's
	// flip and drop probabilities as 53-bit thresholds. accs is the
	// array the current tree round adds into, the protocol's
	// Accumulators answer for it.
	noiseThresh uint64
	dropThresh  uint64
	accs        []uint64

	// Crash-fault scratch: bulk sender lists filtered against the crash
	// plan for the current round.
	liveZeros []int32
	liveOnes  []int32

	// Scatter-path inbox, one word per receiver and a spare at the end:
	// arrival count in the low 32 bits, ones in the high 32, zero between
	// rounds. touched lists the receivers in first-touch order and
	// resolved their bits; inboxOpen marks a round whose resolve has not
	// completed, and live holds one class's senders after drops. words is
	// the draw passes' scratch, two blocks of scatterBlock words: a heap
	// buffer allocated once, where a stack array would be zeroed on every
	// call, which costs more than a small round's hashing.
	words     []uint64
	inbox     []uint64
	touched   []int32
	resolved  []channel.Bit
	inboxOpen bool
	live      []int32

	// Tree-path state: per-bucket split counts and per-worker scratch.
	kc0, kc1 []int
	runs     []denseRun
	buckets  int
	workers  int

	// Tree inbox, one word per receiver, padded to buckets·denseWidth
	// words: arrival count in the low 16 bits, ones in the high 16, zero
	// between rounds. treeOpen marks a tree round that has not
	// completed, so Reset knows the inbox may hold arrivals.
	treeInbox []uint32
	treeOpen  bool

	// walkPlace's first-touch slot list — the walker's, and the sweep's
	// tail bucket's (the one bucket that is not a power of two, so one
	// worker per round uses it). See sparse.go.
	walked []int32
}

// keyedBucketOrder is a test hook: when non-nil, the serial tree execution
// processes buckets in the returned order instead of ascending. Results
// must be identical for every order — that is the keyed schedule's
// shard-invariance property, and keyed_shard_test.go exercises it.
var keyedBucketOrder func(buckets int) []int

// prepareKeyed decides the run's capabilities from n and the
// configuration: a run whose rounds may take the tree regime is one that
// allows self-messages.
func (e *Engine) prepareKeyed() {
	if e.keyed == nil {
		e.keyed = &keyedState{}
	}
	k := e.keyed
	k.noiseThresh = channel.FlipThreshold53(e.cfg.Channel.FlipProb())
	k.dropThresh = channel.FlipThreshold53(e.cfg.DropProb)
	if e.cfg.AllowSelfMessages {
		k.buckets = (e.cfg.N + denseWidth - 1) / denseWidth
		if cap(k.kc0) < k.buckets {
			k.kc0 = make([]int, k.buckets)
			k.kc1 = make([]int, k.buckets)
		}
		k.kc0, k.kc1 = k.kc0[:k.buckets], k.kc1[:k.buckets]
		w := e.cfg.Shards
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w > k.buckets {
			w = k.buckets
		}
		k.workers = w
		if len(k.runs) < w {
			k.runs = make([]denseRun, w)
		}
	}
}

// stepKeyed runs one round and returns the regime that ran it.
func (e *Engine) stepKeyed(p Protocol) (reg telemetry.Regime) {
	round := e.round
	k := e.keyed

	zeros, ones := p.BulkSenders(round)
	listed := len(zeros) + len(ones)
	if words := e.cfg.Failures.activeWords(round); words != nil {
		// Crashed agents neither send nor count toward MessagesSent;
		// protocols stay failure-agnostic, so the cached sender lists
		// are filtered here.
		k.liveZeros = filterLive(k.liveZeros[:0], zeros, words)
		k.liveOnes = filterLive(k.liveOnes[:0], ones, words)
		zeros, ones = k.liveZeros, k.liveOnes
	}
	m := len(zeros) + len(ones)
	e.sent += int64(m)
	e.mark(telemetry.PhaseSenders)

	var accs []uint64
	if e.cfg.AllowSelfMessages && m >= denseMinMessages {
		accs = p.Accumulators(round)
	}
	switch {
	case m == 0:
		// Quiet regime: no live senders means no kernel work.
		e.quietAdvance()
		reg = telemetry.RegimeQuiet
	case accs != nil:
		k.accs = accs
		reg = e.treeRegime(listed, m)
		e.keyedTree(len(zeros), len(ones), round, reg)
	default:
		e.paths.PerMessage++
		reg = telemetry.RegimePerMessage
		e.keyedScatter(p, zeros, ones, round)
	}

	p.EndRound(round)
	e.mark(telemetry.PhaseAccumulate)
	return reg
}

// treeRegime counts a tree round under the executor that runs it: sparse
// when the round listed few senders (listed·sparseRegimeCutover < n,
// counted before the crash filter), sharded when n ≥ shardMinN and the
// round carries at least shardMinMessages live messages m, dense
// otherwise. The choice is a pure function of (n, listed, m), so path
// counters agree byte-for-byte across worker counts and collection
// mechanisms.
func (e *Engine) treeRegime(listed, m int) telemetry.Regime {
	if int64(listed)*sparseRegimeCutover < int64(e.cfg.N) {
		e.paths.Sparse++
		return telemetry.RegimeSparse
	}
	if e.cfg.N >= shardMinN && m >= shardMinMessages {
		e.paths.Sharded++
		return telemetry.RegimeSharded
	}
	e.paths.Dense++
	return telemetry.RegimeDense
}

// quietAdvance accounts a round in which nobody sent. A quiet round
// advances no generator — draws are addressed by (stream, round), never
// sequential — so it must consume nothing; the annotation has breathevet
// prove the path stays that way.
//
//breathe:drawfree
func (e *Engine) quietAdvance() {
	e.paths.Quiet++
}

// keyedScatter is the keyed scatter regime: one placement draw per
// message addressed by sender id, count-based accept-one addressed by
// receiver id, noise addressed by receiver id. The protocol takes each
// accepted message as one Receive, in first-touch order.
//
// Both loops keep their common path call-free (see the file header): a
// placement draw that may need Lemire's rejection test, and an accept-one
// draw that may, break out to the full rule and resume at the next
// element, so receivers are first touched — and resolved and delivered —
// in the same order as a loop that called the full rule every time.
func (e *Engine) keyedScatter(p Protocol, zeros, ones []int32, round int) {
	k := e.keyed
	if k.inbox == nil {
		// One word per receiver, plus a spare for scatterDropCrashed.
		k.inbox = make([]uint64, e.cfg.N+1)
		k.words = make([]uint64, 2*scatterBlock)
	}
	m := len(zeros) + len(ones)
	if cap(k.touched) < m {
		k.touched = make([]int32, m)
	}
	inbox, touched := k.inbox, k.touched[:m]
	// Entries are zeroed as receivers resolve; a round that unwinds before
	// its resolve completes leaves the flag set for Reset to clear.
	k.inboxOpen = true

	span := uint32(e.cfg.N)
	excl := uint32(0)
	if !e.cfg.AllowSelfMessages {
		span--
		excl = 1
	}
	drop := k.dropThresh
	cPlace := e.key.Cell(rng.StreamPlacement, uint64(round))
	cDrop := e.key.Cell(rng.StreamDrop, uint64(round))
	nt := 0
	for c, senders := range [2][]int32{zeros, ones} {
		inc := uint64(c)<<32 | 1
		if drop != 0 {
			// Drops thin the senders before placement, in order.
			k.live = dropFilter(k.live[:0], senders, cDrop, drop, k.words)
			senders = k.live
		}
		nt = scatterPlace(inbox, touched, senders, nt, cPlace, span, excl, inc, k.words)
	}
	e.mark(telemetry.PhasePlacement)

	acc := touched[:nt]
	if words := e.cfg.Failures.activeWords(round); words != nil {
		// Crashed receivers lose every arrival: compact them out.
		acc = acc[:scatterDropCrashed(inbox, acc, words)]
	}
	if cap(k.resolved) < len(acc) {
		k.resolved = make([]channel.Bit, m)
	}
	out := k.resolved[:len(acc)]
	cColl := e.key.Cell(rng.StreamCollision, uint64(round))
	cNoise := e.key.Cell(rng.StreamNoise, uint64(round))
	k.scatterResolveAll(cColl, cNoise, inbox, acc, out)
	k.inboxOpen = false
	// Every message not accepted — dropped in flight, collided, or
	// addressed to a crashed receiver — is a loss.
	e.accepted += int64(len(acc))
	e.dropped += int64(m - len(acc))

	// Resolve bills to the collision phase; delivery rides with EndRound
	// in the accumulate phase.
	e.mark(telemetry.PhaseCollision)
	for i, a := range acc {
		p.Receive(int(a), out[i], round)
	}
}

// scatterBlock is the length of the scatter's draw passes: the words of
// up to this many senders or receivers are drawn into scratch before the
// apply loop reads them.
const scatterBlock = 256

// scatterPlace places one class of senders, each arrival adding inc to its
// receiver's inbox word, and returns the new length of the first-touch
// list touched[:nt]. Block by block it draws the senders' placement words
// into words (scatterBlock long) in one Cell.Words pass and has the
// call-free scatterThrow place them; a possible Lemire rejection breaks
// out to Cell.Uint32n for that sender and the loop resumes at the next.
func scatterPlace(inbox []uint64, touched, senders []int32, nt int, cPlace rng.Cell, span, excl uint32, inc uint64, words []uint64) int {
	words = words[:scatterBlock]
	for len(senders) > 0 {
		blk := senders[:min(len(senders), scatterBlock)]
		cPlace.Words(words, blk)
		for i := 0; i < len(blk); i++ {
			if i, nt = scatterThrow(inbox, touched, blk, words, i, nt, span, excl, inc); i == len(blk) {
				break
			}
			s := uint32(blk[i])
			dst := cPlace.Uint32n(uint64(s), span)
			nt = scatterAdd(inbox, touched, nt, dst+uint32(b2u(dst >= s))&excl, inc)
		}
		senders = senders[len(blk):]
	}
	return nt
}

// scatterThrow is the scatter placement's apply loop: it places
// senders[i:] from their placement words, words[i] for senders[i], each
// arrival adding inc to its receiver's inbox word and a first touch
// extending touched[:nt], and returns at the first sender whose
// placement draw needs the full rule, with that sender's index
// (len(senders) when none does) and the new nt.
//
//breathe:leaf the scatter placement loop; a possible Lemire rejection is handled by the caller
func scatterThrow(inbox []uint64, touched, senders []int32, words []uint64, i, nt int, span, excl uint32, inc uint64) (int, int) {
	words = words[:len(senders)]
	for ; i < len(senders); i++ {
		s := uint32(senders[i])
		dst, ok := placeFast(words[i], span)
		if !ok {
			break
		}
		// Self-exclusion draws on [0, n−1) and skips the sender.
		nt = scatterAdd(inbox, touched, nt, dst+uint32(b2u(dst >= s))&excl, inc)
	}
	return i, nt
}

// scatterAdd books one arrival at dst and returns the new touched count:
// the touched write always happens, the count advances only on a first
// touch, so the common path has no branch.
//
//breathe:leaf inlined into the scatter placement loop
func scatterAdd(inbox []uint64, touched []int32, nt int, dst uint32, inc uint64) int {
	v := inbox[dst]
	touched[nt] = int32(dst)
	inbox[dst] = v + inc
	return nt + int(b2u(v == 0))
}

// scatterDropCrashed compacts the crashed receivers out of acc, zeroing
// their inbox words, and returns the number of live ones left at its
// front, in order. Every receiver is written back, and the count advances
// only past a live one. The zeroing is a store that reads nothing: a live
// receiver's store goes to the spare last word of the inbox instead, so
// the pass never waits on an inbox word.
//
//breathe:leaf the scatter's crash pass over the touched receivers
func scatterDropCrashed(inbox []uint64, acc []int32, words []uint64) int {
	spare := uint(len(inbox) - 1)
	w := 0
	for _, dst := range acc {
		crashed := crashBit(words, uint(dst))
		acc[w] = dst
		inbox[spare+(uint(dst)-spare)&-uint(crashed)] = 0
		w += int(crashed ^ 1)
	}
	return w
}

// dropFilter appends to dst the senders whose drop draw keeps them,
// drawing the words block by block into words (scatterBlock long) in one
// Cell.Words pass.
func dropFilter(dst, senders []int32, cDrop rng.Cell, drop uint64, words []uint64) []int32 {
	words = words[:scatterBlock]
	for len(senders) > 0 {
		blk := senders[:min(len(senders), scatterBlock)]
		cDrop.Words(words, blk)
		for i, s := range blk {
			if words[i]>>11 >= drop {
				dst = append(dst, s)
			}
		}
		senders = senders[len(blk):]
	}
	return dst
}

// scatterResolveAll resolves the round's live receivers acc in order,
// writing each one's bit to out and taking it off the inbox. Block by
// block it draws the collision and noise words of the receivers in one
// Cell.Words pass each and has the call-free scatterAccept apply them; a
// receiver whose accept-one draw needs the full rule goes through
// scatterResolve.
func (k *keyedState) scatterResolveAll(cColl, cNoise rng.Cell, inbox []uint64, acc []int32, out []channel.Bit) {
	coll, noise := k.words[:scatterBlock], k.words[scatterBlock:2*scatterBlock]
	for len(acc) > 0 {
		blk := acc[:min(len(acc), scatterBlock)]
		cColl.Words(coll, blk)
		cNoise.Words(noise, blk)
		for j := 0; j < len(blk); j++ {
			if j = scatterAccept(inbox, blk, out, coll, noise, j, k.noiseThresh); j == len(blk) {
				break
			}
			out[j] = k.scatterResolve(cColl, cNoise, inbox, blk[j])
		}
		acc, out = acc[len(blk):], out[len(blk):]
	}
}

// scatterAccept is the scatter resolve's apply loop: from acc[j] on, it
// applies each live receiver's accept-one word coll[j] and noise word
// noise[j], writes the bit to out and zeroes the receiver's inbox word,
// and returns at the first receiver whose accept-one draw needs the full
// rule — its inbox word still intact — or len(acc).
//
//breathe:leaf the scatter resolve loop; a possible Lemire rejection is handled by the caller
func scatterAccept(inbox []uint64, acc []int32, out []channel.Bit, coll, noise []uint64, j int, thresh uint64) int {
	out, coll, noise = out[:len(acc)], coll[:len(acc)], noise[:len(acc)]
	for ; j < len(acc); j++ {
		dst := uint64(acc[j])
		v := inbox[dst]
		cnt, on := v&(1<<32-1), v>>32
		// With cnt == 1 the draw is below on exactly when on == 1, so
		// single arrivals need no branch of their own.
		hi, ok := acceptFast(coll[j], cnt)
		if !ok {
			break
		}
		inbox[dst] = 0
		out[j] = channel.Bit(b2u(hi < on) ^ b2u(noise[j]>>11 < thresh))
	}
	return j
}

// scatterResolve is the scatter resolve's full rule for one live
// receiver, which it takes off the inbox: the accept-one draw with
// Lemire's rejection test, then the channel's flip, drawn from the
// receiver's noise word.
func (k *keyedState) scatterResolve(cColl, cNoise rng.Cell, inbox []uint64, dst int32) channel.Bit {
	v := inbox[dst]
	inbox[dst] = 0
	cnt, on := v&(1<<32-1), v>>32
	var bit channel.Bit
	if cnt == 1 {
		bit = channel.Bit(on)
	} else if cColl.Uint64n(uint64(dst), cnt) < on {
		bit = 1
	}
	if cNoise.Uint64(uint64(dst))>>11 < k.noiseThresh {
		bit ^= 1
	}
	return bit
}

// placeFast is the inlined fast path of c.Uint32n(i, n) given x =
// c.Uint64(i): one multiply. ok is false when the product's low half
// falls below n — the only case in which Lemire's rule may reject the
// word — and the caller must then take c.Uint32n(i, n), which returns hi
// whenever it accepts.
//
//breathe:leaf inlined into the scatter placement loop
func placeFast(x uint64, n uint32) (hi uint32, ok bool) {
	p := uint64(uint32(x)) * uint64(n)
	return uint32(p >> 32), uint32(p) >= n
}

// acceptFast is placeFast's 64-bit counterpart for c.Uint64n(i, n).
//
//breathe:leaf inlined into the scatter resolve loop
func acceptFast(x, n uint64) (hi uint64, ok bool) {
	hi, lo := bits.Mul64(x, n)
	return hi, lo >= n
}

// b2u turns a comparison into 0 or 1 without a branch.
//
//breathe:leaf inlined into every kernel loop
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// keyedTree is the keyed tree round: an exact multinomial split of the
// round's messages over the population's denseWidth-sized buckets
// (treeSplit), then per-bucket placement and branchless resolve into the
// protocol accumulators. Every bucket's draws come from its own cells of
// the round's placement/collision/split streams, so bucket execution is
// self-contained: serial, permuted or parallel execution yields the same
// bits, with no per-shard seeding and no master-stream prologue. reg picks
// the bucket executor: a dense round sweeps every bucket serially, a
// sharded one on the workers, and a sparse one walks the occupied buckets'
// touched slots (sparse.go).
func (e *Engine) keyedTree(m0, m1, round int, reg telemetry.Regime) {
	k := e.keyed
	placed, used := e.treeSplit(m0, m1, round)
	// Drop thinning and the multinomial split bill to placement; the
	// bucket loop (in-bucket placement + branchless resolve with
	// co-sampled noise) bills to collision, with marks only from the
	// coordinating goroutine — workers never touch the probe.
	e.mark(telemetry.PhasePlacement)

	nB := k.buckets
	var accepted int64
	if reg == telemetry.RegimeSharded && k.workers > 1 {
		// Workers claim buckets off an atomic counter — dynamic, racy
		// assignment, which is safe precisely because a bucket's draws are
		// a pure function of its address.
		var next int64
		var wg sync.WaitGroup
		wg.Add(k.workers)
		for w := 0; w < k.workers; w++ {
			d := &k.runs[w]
			d.accepted = 0
			go func(d *denseRun) {
				defer wg.Done()
				for {
					j := int(atomic.AddInt64(&next, 1)) - 1
					if j >= nB {
						return
					}
					e.keyedBucket(d, j, round, false)
				}
			}(d)
		}
		wg.Wait()
		for w := 0; w < k.workers; w++ {
			accepted += k.runs[w].accepted
		}
	} else {
		d := &k.runs[0]
		d.accepted = 0
		switch {
		case reg == telemetry.RegimeSparse && !keyedWalkerOff:
			// The walker enters only the occupied buckets the split chain
			// reached, serially: the whole point of the sparse regime is
			// that there is too little work to shard.
			for j := range used {
				if k.kc0[j]+k.kc1[j] > 0 {
					e.keyedBucket(d, j, round, true)
				}
			}
		case keyedBucketOrder != nil:
			for _, j := range keyedBucketOrder(nB) {
				e.keyedBucket(d, j, round, false)
			}
		default:
			for j := range nB {
				e.keyedBucket(d, j, round, false)
			}
		}
		accepted = d.accepted
	}
	k.treeOpen = false
	e.mark(telemetry.PhaseCollision)
	// Every placed message that was not the accepted one of its slot is a
	// collision loss, all arrivals at crashed receivers included.
	e.accepted += accepted
	e.dropped += int64(placed) - accepted
}

// treeSplit opens the tree inbox, thins the round's m0 zero- and m1
// one-messages by the drop probability, and splits the survivors over the
// buckets into kc0/kc1. It returns the number of messages placed and the
// number of buckets the split chain reached; every bucket past them holds
// no message.
//
// The split is a conditional-binomial chain with bucket-addressed draws:
// the split values chain (that is what makes the multinomial exact) but
// each bucket's variates come from its own sub-cell, so the schedule never
// references a shard count — the decomposition is a function of n and
// denseWidth alone. The chain stops at the last assigned message: every
// remaining bucket's Binomial(0, ·) would return zero without touching its
// sub-cell, so the skipped tail is deterministically empty.
func (e *Engine) treeSplit(m0, m1, round int) (placed, used int) {
	k := e.keyed
	if k.treeInbox == nil {
		// Padded to whole buckets, so that placeTree sees every bucket as
		// a denseWidth-word window; the padding is never addressed.
		k.treeInbox = make([]uint32, k.buckets*denseWidth)
	}
	// Until the round clears the mark, a run that unwinds may leave
	// arrivals behind, and Reset must clear them.
	k.treeOpen = true

	if q := e.cfg.DropProb; q > 0 {
		cDrop := e.key.Cell(rng.StreamDrop, uint64(round)) //breathe:stream-ok scatter and tree are alternative regimes; stepKeyed runs exactly one per round, so the sites never address the same round's cell
		var rr rng.RNG
		rr.Reseed(cDrop.Uint64(0))
		d0 := rr.Binomial(m0, q)
		rr.Reseed(cDrop.Uint64(1))
		d1 := rr.Binomial(m1, q)
		e.dropped += int64(d0 + d1)
		m0 -= d0
		m1 -= d1
	}

	cSplit := e.key.Cell(rng.StreamSplit, uint64(round))
	rem0, rem1 := m0, m1
	slotsLeft := e.cfg.N
	j := 0
	for ; rem0+rem1 > 0; j++ {
		bsize := min(denseWidth, e.cfg.N-j*denseWidth)
		c0, c1 := rem0, rem1
		if bsize != slotsLeft {
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
		k.kc0[j] = c0
		k.kc1[j] = c1
	}
	clear(k.kc0[j:])
	clear(k.kc1[j:])
	return m0 + m1, j
}

// keyedBucket places and resolves one receiver bucket of a keyed tree
// round, using d only as scratch. All randomness comes from the bucket's
// sub-cells of the round's placement and collision streams; all writes
// stay inside the bucket's slot range plus d (plus k.walked for the walker
// and the tail bucket, which only one worker handles).
//
// The sweep resolves every slot of the bucket from its collision words,
// drawn with one Cell.Fill; with walk it resolves only the slots the
// placements hit, tracked by a first-touch list, and draws their words
// with one Cell.Words pass. The resolve of a touched slot i reads
// cc.Uint64(i), the same base word the sweep reads for it, and an
// untouched slot holds a zero word: the sweep adds zero to its
// accumulator, draws nothing fresh for it, and its crash pass, which only
// zeroes words, leaves it as it is. So the walker's bits are the sweep's.
func (e *Engine) keyedBucket(d *denseRun, j, round int, walk bool) {
	k := e.keyed
	blo := j * denseWidth
	bsize := min(denseWidth, e.cfg.N-blo)
	c0, c1 := k.kc0[j], k.kc1[j]

	d.spill = d.spill[:0]

	cp := e.key.Cell(rng.StreamPlacement, uint64(round)).Sub(uint64(j))
	cc := e.key.Cell(rng.StreamCollision, uint64(round)).Sub(uint64(j))

	// One scratch holds a power-of-two bucket's placement words, zeros'
	// then ones', and after them the collision words: one per slot for the
	// sweep, at most one per message for the walker.
	pow2 := bsize&(bsize-1) == 0
	nd0, nd1 := 0, 0
	if pow2 {
		nd0, nd1 = (c0+3)/4, (c1+3)/4
	}
	ncoll := bsize
	if walk {
		ncoll = c0 + c1
	}
	buf := d.draws(nd0 + nd1 + ncoll)
	cp.Fill(buf[:nd0+nd1], 0)
	coll := buf[nd0+nd1:]

	inbox := k.treeInbox[blo : blo+bsize : blo+bsize]
	if walk || !pow2 {
		// Without placement words the ones' per-message draws start past
		// the zeros'.
		k.walked = d.walkPlace(blo, inbox, c0, 1, buf[:nd0], cp, 0, k.walked[:0])
		k.walked = d.walkPlace(blo, inbox, c1, 1<<16|1, buf[nd0:nd0+nd1], cp, uint64(c0), k.walked)
	} else {
		win := (*[denseWidth]uint32)(k.treeInbox[blo : blo+denseWidth])
		mask := uint32(bsize - 1)
		d.placeTree(blo, win, mask, c0, 1, buf[:nd0])
		d.placeTree(blo, win, mask, c1, 1<<16|1, buf[nd0:nd0+nd1])
	}

	// Crashed receivers lose every arrival: their slots are zeroed, so
	// the resolve sees them unoccupied (the walker compacts them out).
	words := e.cfg.Failures.activeWords(round)
	acc := k.accs[blo : blo+bsize : blo+bsize]
	fix := d.fixBuf()
	var nf int
	if walk {
		touched := k.walked
		if words != nil {
			touched = touched[:walkDropCrashed(inbox, touched, words, uint(blo))]
		}
		coll = coll[:len(touched)]
		cc.Words(coll, touched)
		nf = sparseResolve(inbox, touched, coll, acc, fix, k.noiseThresh)
		d.accepted += int64(len(touched))
	} else {
		cc.Fill(coll, 0)
		if words != nil {
			treeDropCrashed(inbox, words, blo)
		}
		var accepted int64
		nf, accepted = sweepResolve(inbox, coll, acc, fix, k.noiseThresh)
		d.accepted += accepted
	}
	e.keyedFix(d, cc, blo, inbox, acc, fix[:nf])
}

// treeDropCrashed zeroes the slots of the crashed receivers in the bucket
// inbox that starts at agent blo (a multiple of 64): it walks the bucket's
// words of the crash set, skips zero words and clears the slot of each set
// bit, ignoring bits past the bucket's end.
//
//breathe:leaf the tree's crash pass over one bucket
func treeDropCrashed(inbox []uint32, words []uint64, blo int) {
	lo := blo >> 6
	if lo >= len(words) {
		return
	}
	words = words[lo:min(len(words), lo+(len(inbox)+63)>>6)]
	for w, x := range words {
		for ; x != 0; x &= x - 1 {
			if i := w<<6 + bits.TrailingZeros64(x); i < len(inbox) {
				inbox[i] = 0
			}
		}
	}
}

// placeTree throws k messages of one class into a power-of-two bucket
// of mask+1 slots from its pre-filled placement words, four 16-bit lanes
// per word consumed low-first, each arrival adding inc to its slot's
// word. inbox is the bucket's window of the padded tree inbox, denseWidth
// words whatever the bucket's size, so every bucket takes the same loop.
// The call-free treePlace does the placing; an arrival at a saturated
// counter breaks out to the spill list and the loop resumes at the next.
func (d *denseRun) placeTree(lo int, inbox *[denseWidth]uint32, mask uint32, k int, inc uint32, draws []uint64) {
	for i := 0; i < k; i++ {
		if i = treePlace(inbox, mask, draws, i, k, inc); i == k {
			break
		}
		slot := uint32(draws[i>>2]>>(uint(i&3)*16)) & mask
		d.spillAdd(int32(lo)+int32(slot), inc>>16)
	}
}

// treePlace is placeTree's call-free loop: it places messages i..k−1 and
// returns at the first whose slot counter already holds 65535, with its
// index, or k. Each whole placement word is read once and its four
// arrivals done in lane order; treePlaceLanes takes the messages before
// the first word boundary and the k mod 4 after the last. A slot is
// lane & mask with mask clamped to denseWidth−1 (a no-op for a bucket's
// mask), so the fixed-size inbox needs no bounds check; the clamp, not
// a second AND per lane, is what the compiler uses for the proof.
//
//breathe:leaf the tree's placement loop; the saturated-counter spill is handled by the caller
func treePlace(inbox *[denseWidth]uint32, mask uint32, draws []uint64, i, k int, inc uint32) int {
	mask = min(mask, denseWidth-1)
	head := min(k, (i+3)&^3)
	if i = treePlaceLanes(inbox, mask, draws, i, head, inc); i < head {
		return i
	}
	for _, w := range draws[i>>2 : k>>2] {
		s0 := uint32(w) & mask
		v0 := inbox[s0] + inc
		if v0&0xffff == 0 {
			return i
		}
		inbox[s0] = v0
		s1 := uint32(w>>16) & mask
		v1 := inbox[s1] + inc
		if v1&0xffff == 0 {
			return i + 1
		}
		inbox[s1] = v1
		s2 := uint32(w>>32) & mask
		v2 := inbox[s2] + inc
		if v2&0xffff == 0 {
			return i + 2
		}
		inbox[s2] = v2
		s3 := uint32(w>>48) & mask
		v3 := inbox[s3] + inc
		if v3&0xffff == 0 {
			return i + 3
		}
		inbox[s3] = v3
		i += 4
	}
	return treePlaceLanes(inbox, mask, draws, i, k, inc)
}

// treePlaceLanes is treePlace's one-message-at-a-time loop over messages
// i..end−1, for the lanes short of a whole word.
//
//breathe:leaf the tree's placement loop for partial words
func treePlaceLanes(inbox *[denseWidth]uint32, mask uint32, draws []uint64, i, end int, inc uint32) int {
	mask = min(mask, denseWidth-1)
	for ; i < end; i++ {
		slot := uint32(draws[i>>2]>>(uint(i&3)*16)) & mask
		v := inbox[slot] + inc
		if v&0xffff == 0 {
			break
		}
		inbox[slot] = v
	}
	return i
}

// keyedResolveScalar is a test hook: when set, the tree sweep resolves
// every slot with the scalar treeResolve even where rng's AVX-512 gate is
// on. Results must be identical either way.
var keyedResolveScalar bool

// sweepResolve is the tree sweep's per-slot resolve over one bucket, with
// treeResolve's contract. With rng's AVX-512 gate on, treeResolveAVX512
// takes the slots up to the last multiple of 8, eight per step, and
// treeResolve the rest; the two bodies do the same arithmetic, so every
// output is the same on either path.
func sweepResolve(inbox []uint32, rbuf, acc []uint64, fix *[denseWidth]int32, thresh uint64) (nf int, accepted int64) {
	i := 0
	if rng.Vector() && !keyedResolveScalar {
		i = min(len(inbox), denseWidth) &^ 7
		nf, accepted = treeResolveAVX512(inbox[:i], rbuf[:i], acc[:i], fix, thresh)
	}
	nf, tail := treeResolve(inbox, rbuf, acc, fix, thresh, i, nf)
	return nf, accepted + tail
}

// treeResolve is the tree resolve's call-free sweep over the slots of one
// bucket from slot from on: the low 11 bits of the slot's collision word
// drive the Lemire accept-one draw, the top 53 bits the noise flip, and
// the accepted bit lands in the slot's accumulator. Each comparison is a
// borrow bit, (a−b)>>63, exact because every operand is below 2⁵³. A slot
// whose draw may be a Lemire rejection (prod&2047 < cnt, always so from
// cnt = 2048 on) is instead appended to the fix list fix[:nf] (always
// written, advanced only for such a slot) and keeps its inbox word for
// keyedFix; every other slot is zeroed. It returns the new fix-list length
// and the number of occupied slots swept, each of which accepts one
// message.
//
//breathe:leaf the tree's per-slot sweep; rejections and deferrals are listed for keyedFix
func treeResolve(inbox []uint32, rbuf, acc []uint64, fix *[denseWidth]int32, thresh uint64, from, nf int) (int, int64) {
	rbuf = rbuf[from:len(inbox)]
	acc = acc[from:len(inbox)]
	inbox = inbox[from:]
	// c counts fix-list slots in its low 32 bits and occupied slots in
	// its high 32: one register for both (nf ≤ slot < denseWidth).
	c := uint64(nf)
	for j, v := range inbox {
		x := rbuf[j]
		cnt := uint64(v & 0xffff)
		prod := (x & 2047) * cnt
		fixup := (prod&2047 - cnt) >> 63
		// occ is 1 for an occupied slot; keep passes the accumulator
		// write for occupied slots off the fix list (fixup implies occ).
		occ := (cnt + 0xffff) >> 16
		fix[c&(denseWidth-1)] = int32(from + j)
		c += occ<<32 | fixup
		keep := -(occ ^ fixup)
		inbox[j] = v & -uint32(fixup)
		bit := (prod>>11-uint64(v>>16))>>63 ^ (x>>11-thresh)>>63
		acc[j] += (bit<<32 | 1) & keep
	}
	return int(uint32(c)), int64(c >> 32)
}

// fixBuf returns the run's fix-list buffer, one entry per bucket slot.
func (d *denseRun) fixBuf() *[denseWidth]int32 {
	if cap(d.deferred) < denseWidth {
		d.deferred = make([]int32, denseWidth)
	}
	return (*[denseWidth]int32)(d.deferred[:denseWidth])
}

// draws returns the run's word scratch, n words long; its contents are
// the caller's to fill. It grows only as far as the largest request, so
// an engine whose rounds all run on the walker keeps it small.
func (d *denseRun) draws(n int) []uint64 {
	d.drawBuf = slices.Grow(d.drawBuf[:0], n)
	return d.drawBuf[:n]
}

// walkPlace throws k messages of one class into the bucket inbox that
// starts at slot lo. A power-of-two bucket places them from words, four
// 16-bit lanes per word consumed low-first — exactly the words placeTree
// reads; any other bucket draws one unbiased Uint32n from cp per message,
// at counters off, off+1, …. Each arrival adds inc to its slot's word,
// and a slot joins touched on its first touch (a zero word), so it
// appears once per round across both classes. An arrival at a saturated
// counter goes to the spill list.
func (d *denseRun) walkPlace(lo int, inbox []uint32, k int, inc uint32, words []uint64, cp rng.Cell, off uint64, touched []int32) []int32 {
	size := uint32(len(inbox))
	pow2 := size&(size-1) == 0
	for i := 0; i < k; i++ {
		var slot uint32
		if pow2 {
			slot = uint32(words[i>>2]>>(uint(i&3)*16)) & (size - 1)
		} else {
			slot = cp.Uint32n(off+uint64(i), size)
		}
		v := inbox[slot]
		if v == 0 {
			touched = append(touched, int32(slot))
		}
		if v&0xffff == 0xffff {
			d.spillAdd(int32(lo)+int32(slot), inc>>16)
			continue
		}
		inbox[slot] = v + inc
	}
	return touched
}

// keyedFix resolves the fix-list slots of one bucket after its sweep —
// the tree's and the sparse walker's alike — and zeroes each slot's
// inbox word as it reads it. A slot beyond the 11-bit accept draw goes
// to keyedResolveDeferred. A unanimous slot accepts its class bit
// whatever the draw, so it takes the noise from its base word with no
// retry. Any other slot completes the Lemire rejection rule on its
// collision word with addressed retries: attempt a of slot t reads
// counter a·denseWidth + t, above every slot's base word.
func (e *Engine) keyedFix(d *denseRun, cc rng.Cell, blo int, inbox []uint32, acc []uint64, fix []int32) {
	thresh := e.keyed.noiseThresh
	for _, t := range fix {
		v := inbox[t]
		inbox[t] = 0
		cnt, on := uint64(v&0xffff), uint64(v>>16)
		if cnt >= 2048 {
			e.keyedResolveDeferred(d, cc, blo, int(t), v)
			continue
		}
		x := cc.Uint64(uint64(t))
		bit := b2u(on != 0)
		if on != 0 && on != cnt {
			prod := (x & 2047) * cnt
			for a := uint64(1); !acceptLemire11(prod, cnt); a++ {
				x = cc.Uint64(a*denseWidth + uint64(t))
				prod = (x & 2047) * cnt
			}
			bit = b2u(prod>>11 < on)
		}
		acc[t] += (bit^b2u(x>>11 < thresh))<<32 | 1
	}
}

// acceptLemire11 is Lemire's rejection test for an 11-bit accept-one
// draw: the value prod>>11 of prod = u·cnt (u < 2¹¹) is exactly uniform
// over [0, cnt) when kept only while the product's low bits clear
// 2¹¹ mod cnt.
func acceptLemire11(prod, cnt uint64) bool {
	return prod&2047 >= 2048%cnt
}

// keyedResolveDeferred resolves slot t of the bucket at blo, whose inbox
// word v counts more arrivals than the 11-bit accept draw covers — a
// saturated counter's excess sits in the spill list — from an ephemeral
// stream seeded by a reserved high counter of the bucket's collision
// cell.
func (e *Engine) keyedResolveDeferred(d *denseRun, cc rng.Cell, blo, t int, v uint32) {
	k := e.keyed
	slot := blo + t
	cnt, on := uint64(v&0xffff), uint64(v>>16)
	for _, s := range d.spill {
		if s.slot == int32(slot) {
			cnt += uint64(s.count)
			on += uint64(s.ones)
		}
	}
	var rr rng.RNG
	rr.Reseed(cc.Uint64(1<<60 | uint64(t)))
	var bit uint64
	switch {
	case on == 0:
	case on == cnt:
		bit = 1
	default:
		if rr.Uint64n(cnt) < on {
			bit = 1
		}
	}
	if rr.Uint64()>>11 < k.noiseThresh {
		bit ^= 1
	}
	k.accs[slot] += bit<<32 | 1
}
