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
// kernel runs it, in what order buckets execute, or on how many
// goroutines. The engine therefore picks the *sampling regime* per round
// as a pure function of (message count, n, configuration, protocol
// capability), identically for every Config.Kernel:
//
//	quiet    no live senders
//	scatter  one placement draw per message, count-based accept-one
//	tree     exchangeable rounds (self-messages + uniform noise +
//	         accumulator delivery) at dense scale: exact per-bucket
//	         multinomial splits, in-bucket placement, branchless resolve
//	sparse   tree-eligible rounds whose protocol declares a small active
//	         set (SenderIndex, k·64 < n): the same tree round executed
//	         event-driven — occupied buckets and touched slots only —
//	         in O(k + messages) instead of Θ(n) (see sparse.go)
//
// Config.Kernel then only chooses the mechanism: per-agent collection and
// delivery (Send/Receive, the base Protocol interface) versus bulk
// collection and delivery (BulkSenders/BulkDeliver/accumulators). Both
// mechanisms ask for the same addresses and receptions commute, so
// results are byte-identical — keyed_identity_test.go pins it — and
// Result.Paths reports the regime, which is also kernel-independent.
//
// There is no per-worker stream and no serial prologue: the tree's bucket
// decomposition is a pure function of n at denseWidth granularity, each
// bucket's draws are self-contained, and workers claim buckets off an
// atomic counter. Any bucket can be computed anywhere — a different
// goroutine, a different execution order, in principle a different machine
// — without exchanging generator state (keyed_shard_test.go).
//
// The inner loops — scatter placement and resolve, the tree's placement,
// the tree's and the sparse walker's per-slot resolve — are leaf functions whose common path
// makes no call, so Go keeps their loop state in registers; each carries
// //breathe:leaf, which breathevet's leafloop analyzer checks. Every rare
// case leaves the loop: a placement or accept-one draw that may need
// Lemire's rejection test breaks out to the full Cell.Uint32n/Uint64n
// rule and the loop resumes at the next element; a non-uniform channel
// resolves on its own path; crash checks run as pre-passes; a tree
// arrival at a saturated counter goes to the spill list; tree slots
// whose accept-one draw may be a Lemire rejection — every slot from 2048
// arrivals on among them — are listed branch-free in a fix list and
// resolved after the sweep (keyedFix).
// The scatter inbox is one uint64 per receiver — arrival count in the
// low 32 bits, ones in the high 32 (exact, since m ≤ n < 2³¹) — zeroed
// as each receiver resolves, so it needs no round stamps and each
// message costs one random access.
//
// The tree and the sparse walker share a second inbox, one uint32 per
// receiver: arrival count in the low 16 bits, ones in the high 16. It
// too is all-zero between rounds and carries no stamps — a slot is
// occupied exactly when its word is non-zero. The tree's sweep zeroes
// each slot as it resolves it (a fix-list slot keeps its word until
// keyedFix reads it), the walker zeroes every slot it touched, and both
// crash passes zero the slots of crashed receivers. An arrival at a
// counter already at 65535 goes to the bucket's spill list.

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// keyedState holds the kernel's per-run capabilities and scratch.
// Allocated lazily on the first run of an engine; survives Reset.
type keyedState struct {
	// Per-run capabilities, refreshed by prepareKeyed. accs is the bulk
	// protocol's accumulator array (nil without one), and denseOK reports
	// a run whose rounds may take the tree regime: self-messages allowed,
	// a uniform channel and accumulator delivery.
	uniform     bool
	noiseThresh uint64
	dropThresh  uint64
	vshards     int
	accs        []uint64
	denseOK     bool

	// Crash-fault scratch: bulk sender lists filtered against the
	// FailurePlan for the current round.
	liveZeros []int32
	liveOnes  []int32

	// Scatter-path inbox, one word per receiver: arrival count in the
	// low 32 bits, ones in the high 32, zero between rounds. touched
	// lists the receivers in first-touch order and resolved their bits;
	// inboxOpen marks a round whose resolve has not completed, and live
	// holds one class's senders after drops.
	inbox     []uint64
	touched   []int32
	resolved  []channel.Bit
	inboxOpen bool
	live      []int32

	// Per-agent collection scratch: the Send-scan's sender lists.
	zeroBuf []int32
	oneBuf  []int32

	// Tree-path state: per-bucket split counts and per-worker scratch.
	kc0, kc1 []int
	runs     []denseRun
	buckets  int
	workers  int

	// Tree and sparse-walker inbox, one word per receiver: arrival count
	// in the low 16 bits, ones in the high 16, zero between rounds.
	// treeOpen marks a tree or sparse round that has not completed, so
	// Reset knows the inbox may hold arrivals.
	treeInbox []uint32
	treeOpen  bool

	// Sparse-regime state: the protocol's declared-active-set oracle
	// (nil when the protocol maintains no index), the walker's
	// occupied-bucket scratch, and walkPlace's first-touch slot list —
	// the walker's, and the tree's tail bucket's (the one bucket that is
	// not a power of two, so one worker per round uses it). See sparse.go.
	senderIdx SenderIndex
	sparseOcc []sparseBucket
	walked    []int32
}

// keyedBucketOrder is a test hook: when non-nil, the serial tree execution
// processes buckets in the returned order instead of ascending. Results
// must be identical for every order — that is the keyed schedule's
// shard-invariance property, and keyed_shard_test.go exercises it.
var keyedBucketOrder func(buckets int) []int

// prepareKeyed decides the run's capabilities. Nothing here depends on
// Config.Kernel except the KernelBatched capability check: the kernel only
// selects the collection/delivery mechanism inside stepKeyed.
func (e *Engine) prepareKeyed(p Protocol) BulkProtocol {
	bp, ok := p.(BulkProtocol)
	capable := ok && bp.BulkEnabled() && e.cfg.N < maxBulkN
	if e.cfg.Kernel == KernelBatched && !capable {
		panic(fmt.Sprintf("sim: KernelBatched requires a bulk-capable protocol and config (protocol %q, bulk=%v, n=%d)",
			p.Name(), ok, e.cfg.N))
	}
	if e.keyed == nil {
		e.keyed = &keyedState{}
	}
	k := e.keyed
	un, uniform := e.cfg.Channel.(channel.UniformNoise)
	k.uniform = uniform
	k.noiseThresh = 0
	if uniform {
		k.noiseThresh = channel.FlipThreshold53(un.UniformFlipProb())
	}
	k.dropThresh = channel.FlipThreshold53(e.cfg.DropProb)
	k.accs, k.denseOK = nil, false
	if !capable {
		return nil
	}
	k.accs = bp.BulkAccumulators()
	k.denseOK = e.cfg.AllowSelfMessages && uniform && k.accs != nil
	k.senderIdx = nil
	if k.denseOK {
		// The sparse regime refines tree-eligible rounds only, so the
		// index oracle is consulted exactly when the tree could run —
		// identically under every kernel.
		k.senderIdx, _ = p.(SenderIndex)
		k.vshards = numShards(e.cfg.N)
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
	return bp
}

// stepKeyed runs one round. bp is nil when the protocol or configuration
// cannot use the batched machinery at all; the round then runs per-agent
// collection with scatter sampling, which has no population cap. The return value reports a quiet round (no live
// senders), which arms the caller's span skip.
func (e *Engine) stepKeyed(p Protocol, bp BulkProtocol) (quiet bool) {
	round := e.round
	k := e.keyed

	var zeros, ones []int32
	bulkCollect := bp != nil && e.cfg.Kernel != KernelPerAgent
	if bulkCollect {
		zeros, ones = bp.BulkSenders(round)
		if f := e.cfg.Failures; f != nil {
			// Crashed agents neither send nor count toward MessagesSent;
			// protocols stay failure-agnostic, so the cached sender lists
			// are filtered here.
			k.liveZeros = filterLive(k.liveZeros[:0], zeros, f, round)
			k.liveOnes = filterLive(k.liveOnes[:0], ones, f, round)
			zeros, ones = k.liveZeros, k.liveOnes
		}
	} else {
		zeros, ones = e.keyedSendScan(p, round)
	}
	m := len(zeros) + len(ones)
	e.sent += int64(m)
	e.mark(telemetry.PhaseSenders)

	switch {
	case m == 0:
		// Quiet regime, for bulk and non-bulk collection alike: no live
		// senders means no kernel work on any path, so the accounting is
		// kernel-independent too.
		e.quietAdvance()
		quiet = true
	case bp == nil:
		// No batched machinery: the scatter regime on the base Protocol
		// interface is the only (and therefore trivially kernel-identical)
		// path.
		e.paths.PerAgent++
		e.keyedScatter(p, nil, false, zeros, ones, round)
	case k.denseOK && m >= denseMinMessages && bp.BulkAccumulate(round):
		// The sparse/dense/sharded accounting split is a pure function of
		// (n, m, declared active set) — the sparse leg consults the
		// protocol's SenderIndex, never the kernel — so path counters
		// agree byte-for-byte across kernels, worker counts and the
		// SparseCutover knob. The executor choice below is the only thing
		// the knob steers, and the walker reproduces the tree's bits
		// exactly (sparse.go).
		declared := -1
		if k.senderIdx != nil {
			declared = k.senderIdx.ActiveSenders(round)
		}
		sharded := k.vshards >= 2 && m >= shardMinMessages
		switch {
		case e.sparseAccounted(declared):
			e.paths.Sparse++
		case sharded:
			e.paths.Sharded++
		default:
			e.paths.Dense++
		}
		if e.sparseExec(declared) {
			e.keyedSparse(len(zeros), len(ones), round)
		} else {
			e.keyedTree(len(zeros), len(ones), round, sharded)
		}
	default:
		e.paths.PerMessage++
		e.keyedScatter(p, bp, bulkCollect, zeros, ones, round)
	}

	p.EndRound(round)
	e.mark(telemetry.PhaseAccumulate)
	return quiet
}

// quietAdvance accounts a round in which nobody sent. A quiet round
// advances no generator — draws are addressed by (stream, round), never
// sequential — so skipping it must consume nothing; the annotation has
// breathevet prove the path stays that way.
//
//breathe:drawfree
func (e *Engine) quietAdvance() {
	e.paths.Quiet++
}

// prepareQuietSkip arms the run's quiet-span skipping: a protocol with a
// span oracle, and a failure plan (if any) that declares its crash
// boundaries — an undeclared plan keeps the run per-round, so the skip
// path never changes how an arbitrary Crashed implementation is
// consulted.
func (e *Engine) prepareQuietSkip(p Protocol) {
	e.spanner = nil
	e.crashBound = nil
	if e.cfg.NoQuietSkip {
		return
	}
	qs, ok := p.(QuietSpanner)
	if !ok {
		return
	}
	if f := e.cfg.Failures; f != nil {
		cb, ok := f.(CrashBoundary)
		if !ok {
			return
		}
		e.crashBound = cb
	}
	e.spanner = qs
}

// skipQuietSpan advances the round cursor to next — the first round that
// can act, per the span oracle and crash boundaries — crediting the
// jumped-over rounds as executed quiet rounds. The span is clamped to
// MaxRounds, and with an armed observer to its next due round
// (ObserverEvery); an observer without a declared cadence disables
// skipping entirely, because any round could matter to it. The walk is
// pure arithmetic: no generator advances, so a skipped run is
// bit-identical to a round-by-round run — breathevet proves this path
// stays draw-free.
//
//breathe:drawfree
func (e *Engine) skipQuietSpan(next int) {
	g := e.round
	t := next
	if t > e.cfg.MaxRounds {
		t = e.cfg.MaxRounds
	}
	if e.cfg.Observer != nil {
		every := e.cfg.ObserverEvery
		if every <= 1 {
			return
		}
		if due := (g/every + 1) * every; due < t {
			t = due
		}
	}
	if t <= g+1 {
		return
	}
	// The loop increment lands on t: rounds g+1 .. t-1 are the skipped
	// span, counted exactly as the per-round quiet path would have.
	e.paths.Quiet += int64(t - g - 1)
	e.quietSpans++
	e.round = t - 1
}

// keyedSendScan collects the round's live senders through the per-agent
// interface: crash check before Send, yielding the same sender multiset
// the bulk collection reports after filtering.
func (e *Engine) keyedSendScan(p Protocol, round int) (zeros, ones []int32) {
	k := e.keyed
	f := e.cfg.Failures
	zeros, ones = k.zeroBuf[:0], k.oneBuf[:0]
	for a := 0; a < e.cfg.N; a++ {
		if f != nil && f.Crashed(a, round) {
			continue
		}
		bit, ok := p.Send(a, round)
		if !ok {
			continue
		}
		if bit == 0 {
			zeros = append(zeros, int32(a))
		} else {
			ones = append(ones, int32(a))
		}
	}
	k.zeroBuf, k.oneBuf = zeros, ones
	return zeros, ones
}

// keyedScatter is the keyed scatter regime: one placement draw per
// message addressed by sender id, count-based accept-one addressed by
// receiver id, noise addressed by receiver id. bulk selects the delivery
// mechanism (BulkDeliver vs per-agent Receive); the draws are identical
// either way.
//
// Both loops keep their common path call-free (see the file header): a
// placement draw that may need Lemire's rejection test, and an accept-one
// draw that may, break out to the full rule and resume at the next
// element, so receivers are first touched — and resolved and delivered —
// in the same order as a loop that called the full rule every time.
func (e *Engine) keyedScatter(p Protocol, bp BulkProtocol, bulk bool, zeros, ones []int32, round int) {
	k := e.keyed
	if k.inbox == nil {
		k.inbox = make([]uint64, e.cfg.N)
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
			k.live = dropFilter(k.live[:0], senders, cDrop, drop)
			senders = k.live
		}
		nt = scatterPlace(inbox, touched, senders, nt, cPlace, span, excl, inc)
	}
	e.mark(telemetry.PhasePlacement)

	acc := touched[:nt]
	if f := e.cfg.Failures; f != nil {
		// Crashed receivers lose every arrival: compact them out.
		w := 0
		for _, dst := range acc {
			if f.Crashed(int(dst), round) {
				inbox[dst] = 0
				continue
			}
			acc[w] = dst
			w++
		}
		acc = acc[:w]
	}
	if cap(k.resolved) < len(acc) {
		k.resolved = make([]channel.Bit, m)
	}
	out := k.resolved[:len(acc)]
	cColl := e.key.Cell(rng.StreamCollision, uint64(round))
	cNoise := e.key.Cell(rng.StreamNoise, uint64(round))
	for j := 0; j < len(acc); j++ {
		if k.uniform {
			if j = scatterAccept(inbox, acc, out, j, cColl, cNoise, k.noiseThresh); j == len(acc) {
				break
			}
		}
		out[j] = k.scatterResolve(e.cfg.Channel, cColl, cNoise, inbox, acc[j])
	}
	k.inboxOpen = false
	// Every message not accepted — dropped in flight, collided, or
	// addressed to a crashed receiver — is a loss.
	e.accepted += int64(len(acc))
	e.dropped += int64(m - len(acc))

	// Resolve and (non-bulk) Receive delivery bill to the collision phase;
	// BulkDeliver rides with EndRound in the accumulate phase.
	if !bulk {
		for j, dst := range acc {
			p.Receive(int(dst), out[j], round)
		}
	}
	e.mark(telemetry.PhaseCollision)
	if bulk {
		bp.BulkDeliver(acc, out, round)
	}
}

// scatterPlace places one class of senders, each arrival adding inc to its
// receiver's inbox word, and returns the new length of the first-touch
// list touched[:nt]. The call-free scatterThrow does the placing; a
// possible Lemire rejection breaks out to Cell.Uint32n for that sender
// and the loop resumes at the next.
func scatterPlace(inbox []uint64, touched, senders []int32, nt int, cPlace rng.Cell, span, excl uint32, inc uint64) int {
	for i := 0; i < len(senders); i++ {
		if i, nt = scatterThrow(inbox, touched, senders, i, nt, cPlace, span, excl, inc); i == len(senders) {
			break
		}
		s := uint32(senders[i])
		dst := cPlace.Uint32n(uint64(s), span)
		nt = scatterAdd(inbox, touched, nt, dst+uint32(b2u(dst >= s))&excl, inc)
	}
	return nt
}

// scatterThrow is the scatter placement's call-free loop: it places
// senders[i:], each arrival adding inc to its receiver's inbox word and a
// first touch extending touched[:nt], and returns at the first live
// sender whose placement draw needs the full rule, with that sender's
// index (len(senders) when none does) and the new nt.
//
//breathe:leaf the scatter placement loop; a possible Lemire rejection is handled by the caller
func scatterThrow(inbox []uint64, touched, senders []int32, i, nt int, cPlace rng.Cell, span, excl uint32, inc uint64) (int, int) {
	for ; i < len(senders); i++ {
		s := uint32(senders[i])
		dst, ok := placeFast(cPlace, uint64(s), span)
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

// dropFilter appends to dst the senders whose drop draw keeps them.
func dropFilter(dst, senders []int32, cDrop rng.Cell, drop uint64) []int32 {
	for _, s := range senders {
		if cDrop.Uint64(uint64(s))>>11 >= drop {
			dst = append(dst, s)
		}
	}
	return dst
}

// scatterAccept is the uniform-channel scatter resolve's call-free loop:
// from acc[j] on, it draws each live receiver's accept-one and noise,
// writes the bit to out and zeroes the receiver's inbox word, and returns
// at the first receiver whose accept-one draw needs the full rule — its
// inbox word still intact — or len(acc).
//
//breathe:leaf the scatter resolve loop; a possible Lemire rejection is handled by the caller
func scatterAccept(inbox []uint64, acc []int32, out []channel.Bit, j int, cColl, cNoise rng.Cell, thresh uint64) int {
	out = out[:len(acc)]
	for ; j < len(acc); j++ {
		dst := uint64(acc[j])
		v := inbox[dst]
		cnt, on := v&(1<<32-1), v>>32
		// With cnt == 1 the draw is below on exactly when on == 1, so
		// single arrivals need no branch of their own.
		hi, ok := acceptFast(cColl, dst, cnt)
		if !ok {
			break
		}
		inbox[dst] = 0
		out[j] = channel.Bit(b2u(hi < on) ^ b2u(cNoise.Uint64(dst)>>11 < thresh))
	}
	return j
}

// scatterResolve is the scatter resolve's full rule for one live
// receiver, which it takes off the inbox: the accept-one draw with
// Lemire's rejection test, then the channel — the uniform flip, or a
// non-uniform channel on an ephemeral stream seeded by the receiver's
// noise-cell word, so per-message noise state stays addressed (and
// kernel-independent) too.
func (k *keyedState) scatterResolve(ch channel.Channel, cColl, cNoise rng.Cell, inbox []uint64, dst int32) channel.Bit {
	v := inbox[dst]
	inbox[dst] = 0
	cnt, on := v&(1<<32-1), v>>32
	var bit channel.Bit
	if cnt == 1 {
		bit = channel.Bit(on)
	} else if cColl.Uint64n(uint64(dst), cnt) < on {
		bit = 1
	}
	if k.uniform {
		if cNoise.Uint64(uint64(dst))>>11 < k.noiseThresh {
			bit ^= 1
		}
		return bit
	}
	var rr rng.RNG
	rr.Reseed(cNoise.Uint64(uint64(dst)))
	return ch.Transmit(bit, &rr)
}

// placeFast is the inlined fast path of c.Uint32n(i, n): one word and one
// multiply. ok is false when the product's low half falls below n — the
// only case in which Lemire's rule may reject the word — and the caller
// must then take c.Uint32n(i, n), which returns hi whenever it accepts.
//
//breathe:leaf inlined into the scatter placement loop
func placeFast(c rng.Cell, i uint64, n uint32) (hi uint32, ok bool) {
	x := uint64(uint32(c.Uint64(i))) * uint64(n)
	return uint32(x >> 32), uint32(x) >= n
}

// acceptFast is placeFast's 64-bit counterpart for c.Uint64n(i, n).
//
//breathe:leaf inlined into the scatter resolve loop
func acceptFast(c rng.Cell, i, n uint64) (hi uint64, ok bool) {
	hi, lo := bits.Mul64(c.Uint64(i), n)
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

// keyedTree is the keyed dense regime: an exact multinomial split of the
// round's messages over the population's denseWidth-sized buckets, then
// per-bucket placement and branchless resolve into the protocol
// accumulators. Every bucket's draws come from its own cells of the
// round's placement/collision/split streams, so bucket execution is
// self-contained: serial, permuted or parallel execution yields the same
// bits, with no per-shard seeding and no master-stream prologue.
func (e *Engine) keyedTree(m0, m1, round int, parallel bool) {
	k := e.keyed
	k.openTree(e.cfg.N)

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
	placed := m0 + m1

	// Conditional-binomial bucket split, bucket-addressed draws: the split
	// values chain (that is what makes the multinomial exact) but each
	// bucket's variates come from its own sub-cell, so the schedule never
	// references a shard count — the decomposition is a function of n and
	// denseWidth alone.
	cSplit := e.key.Cell(rng.StreamSplit, uint64(round))
	nB := k.buckets
	rem0, rem1 := m0, m1
	slotsLeft := e.cfg.N
	for j := 0; j < nB; j++ {
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
		k.kc0[j] = c0
		k.kc1[j] = c1
	}
	// Drop thinning and the multinomial split bill to placement; the
	// bucket loop (in-bucket placement + branchless resolve with
	// co-sampled noise) bills to collision, with marks only from the
	// coordinating goroutine — workers never touch the probe.
	e.mark(telemetry.PhasePlacement)

	var accepted int64
	if !parallel || k.workers <= 1 {
		d := &k.runs[0]
		d.accepted = 0
		if keyedBucketOrder != nil {
			for _, j := range keyedBucketOrder(nB) {
				e.keyedBucket(d, j, round)
			}
		} else {
			for j := 0; j < nB; j++ {
				e.keyedBucket(d, j, round)
			}
		}
		accepted = d.accepted
	} else {
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
					e.keyedBucket(d, j, round)
				}
			}(d)
		}
		wg.Wait()
		for w := 0; w < k.workers; w++ {
			accepted += k.runs[w].accepted
		}
	}
	k.treeOpen = false
	e.mark(telemetry.PhaseCollision)
	e.denseRoundEnd(placed, accepted)
}

// openTree allocates the tree inbox on first use and marks a tree or
// sparse round in flight: until the round clears the mark, a run that
// unwinds may leave arrivals behind, and Reset must clear them.
func (k *keyedState) openTree(n int) {
	if k.treeInbox == nil {
		k.treeInbox = make([]uint32, n)
	}
	k.treeOpen = true
}

// keyedBucket places and resolves one receiver bucket of a keyed tree
// round, using d only as scratch. All randomness comes from the bucket's
// sub-cells of the round's placement and collision streams; all writes
// stay inside the bucket's slot range plus d (plus k.walked for the tail
// bucket, which only one worker handles).
func (e *Engine) keyedBucket(d *denseRun, j, round int) {
	k := e.keyed
	n := e.cfg.N
	blo := j * denseWidth
	bsize := denseWidth
	if blo+bsize > n {
		bsize = n - blo
	}
	c0, c1 := k.kc0[j], k.kc1[j]

	d.spill = d.spill[:0]

	cp := e.key.Cell(rng.StreamPlacement, uint64(round)).Sub(uint64(j))
	cc := e.key.Cell(rng.StreamCollision, uint64(round)).Sub(uint64(j))

	pow2 := bsize&(bsize-1) == 0
	nd0, nd1 := 0, 0
	if pow2 {
		nd0, nd1 = (c0+3)/4, (c1+3)/4
	}
	need := nd0 + nd1 + bsize
	if cap(d.drawBuf) < need {
		d.drawBuf = make([]uint64, need+denseWidth)
	}
	buf := d.drawBuf[:need]
	cp.Fill(buf[:nd0+nd1], 0)
	cc.Fill(buf[nd0+nd1:], 0)

	inbox := k.treeInbox[blo : blo+bsize : blo+bsize]
	if pow2 {
		d.placeTree(blo, inbox, c0, 1, buf[:nd0])
		d.placeTree(blo, inbox, c1, 1<<16|1, buf[nd0:nd0+nd1])
	} else {
		k.walked = d.walkPlace(blo, inbox, c0, 1, cp, 0, k.walked[:0])
		k.walked = d.walkPlace(blo, inbox, c1, 1<<16|1, cp, uint64(c0), k.walked)
	}

	if f := e.cfg.Failures; f != nil {
		// Crashed receivers lose every arrival: zero their slots, so the
		// sweep sees them unoccupied.
		for i, v := range inbox {
			if v != 0 && f.Crashed(blo+i, round) {
				inbox[i] = 0
			}
		}
	}
	acc := k.accs[blo : blo+bsize : blo+bsize]
	fix := d.fixBuf()
	nf, accepted := treeResolve(inbox, buf[nd0+nd1:], acc, fix, k.noiseThresh)
	d.accepted += accepted
	e.keyedFix(d, cc, blo, inbox, acc, fix[:nf])
}

// placeTree throws k messages of one class into a power-of-two bucket
// from its pre-filled placement words, four 16-bit lanes per word
// consumed low-first, each arrival adding inc to its slot's word. The
// call-free treePlace does the placing; an arrival at a saturated
// counter breaks out to the spill list and the loop resumes at the next.
func (d *denseRun) placeTree(lo int, inbox []uint32, k int, inc uint32, draws []uint64) {
	for i := 0; i < k; i++ {
		if i = treePlace(inbox, draws, i, k, inc); i == k {
			break
		}
		slot := draws[i>>2] >> (uint(i&3) * 16) & uint64(len(inbox)-1)
		d.spillAdd(int32(lo)+int32(slot), inc>>16)
	}
}

// treePlace is placeTree's call-free loop: it places messages i..k−1 and
// returns at the first whose slot counter already holds 65535, with its
// index, or k.
//
//breathe:leaf the tree's placement loop; the saturated-counter spill is handled by the caller
func treePlace(inbox []uint32, draws []uint64, i, k int, inc uint32) int {
	mask := uint64(len(inbox) - 1)
	for ; i < k; i++ {
		slot := draws[i>>2] >> (uint(i&3) * 16) & mask
		nv := inbox[slot] + inc
		if nv&0xffff == 0 {
			break
		}
		inbox[slot] = nv
	}
	return i
}

// treeResolve is the tree resolve's call-free sweep over one bucket: the
// low 11 bits of the slot's collision word drive the Lemire accept-one
// draw, the top 53 bits the noise flip, and the accepted bit lands in
// the slot's accumulator. Each comparison is a borrow bit, (a−b)>>63,
// exact because every operand is below 2⁵³. A slot whose draw may be a
// Lemire rejection (prod&2047 < cnt, always so from cnt = 2048 on) is
// instead listed in fix (always written, advanced only for such a slot)
// and keeps its inbox word for keyedFix; every other slot is zeroed. It
// returns the fix-list length and the number of occupied slots, each of
// which accepts one message.
//
//breathe:leaf the tree's per-slot sweep; rejections and deferrals are listed for keyedFix
func treeResolve(inbox []uint32, rbuf, acc []uint64, fix *[denseWidth]int32, thresh uint64) (nf int, accepted int64) {
	rbuf = rbuf[:len(inbox)]
	acc = acc[:len(inbox)]
	// c counts fix-list slots in its low 32 bits and occupied slots in
	// its high 32: one register for both (nf ≤ i < denseWidth).
	var c uint64
	for i, v := range inbox {
		x := rbuf[i]
		cnt := uint64(v & 0xffff)
		prod := (x & 2047) * cnt
		fixup := (prod&2047 - cnt) >> 63
		// occ is 1 for an occupied slot; keep passes the accumulator
		// write for occupied slots off the fix list (fixup implies occ).
		occ := (cnt + 0xffff) >> 16
		fix[c&(denseWidth-1)] = int32(i)
		c += occ<<32 | fixup
		keep := -(occ ^ fixup)
		inbox[i] = v & -uint32(fixup)
		bit := (prod>>11-uint64(v>>16))>>63 ^ (x>>11-thresh)>>63
		acc[i] += (bit<<32 | 1) & keep
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

// walkPlace throws k messages of one class into the bucket inbox that
// starts at slot lo, drawing placements on demand from cp at counters
// off, off+1, …: in a power-of-two bucket, four 16-bit lanes per word
// consumed low-first — exactly the words placeTree reads pre-filled —
// and otherwise one unbiased Uint32n draw per message. Each arrival adds
// inc to its slot's word, and a slot joins touched on its first touch
// (a zero word), so it appears once per round across both classes. An
// arrival at a saturated counter goes to the spill list.
func (d *denseRun) walkPlace(lo int, inbox []uint32, k int, inc uint32, cp rng.Cell, off uint64, touched []int32) []int32 {
	size := uint32(len(inbox))
	pow2 := size&(size-1) == 0
	var x uint64
	for i := 0; i < k; i++ {
		var slot uint32
		if !pow2 {
			slot = cp.Uint32n(off+uint64(i), size)
		} else {
			if i&3 == 0 {
				x = cp.Uint64(off + uint64(i>>2))
			}
			slot = uint32(x) & (size - 1)
			x >>= 16
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
