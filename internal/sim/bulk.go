package sim

// The batched round kernel. The per-agent path in sim.go is the executable
// definition of the Flip model: one Send call per agent per round, a
// reservoir draw per colliding message, one Transmit per accepted message.
// That costs Θ(n) interface dispatches per round even in the protocol's
// quiescent "breathe" phases and caps practical population sizes well
// below 10⁶. The batched kernel removes the per-agent work while sampling
// from exactly the same distribution:
//
//   - Protocols that implement BulkProtocol report their active-sender set
//     once per round (cached per phase on the protocol side), so rounds
//     cost O(messages), not O(n).
//   - Collision resolution is count-based: a receiver hit by c messages of
//     which k are ones accepts a one with probability k/c — identical in
//     law to reservoir-sampling one arrival uniformly.
//   - Noise is applied in bulk (channel.BulkTransmitter) or, on the dense
//     path, co-sampled with collision resolution from one integer draw.
//   - When Config.AllowSelfMessages makes messages exchangeable, the dense
//     path replaces per-message recipient draws with an exact sequential
//     multinomial over cache-sized receiver buckets (a binomial draw per
//     bucket) followed by in-bucket placement from masked bits, and
//     delivers into protocol-owned accumulators with a branchless scan.
//   - Crash plans (Config.Failures) run on every batched path: the sender
//     lists are filtered against the plan each round and crashed receivers
//     are masked — after collision resolution on the per-message path, in
//     the resolve scan on the dense paths — with the same drop accounting
//     as the per-agent path.
//   - Above the sharding threshold (shard.go) the dense path splits the
//     round across the population's virtual shards and executes them on
//     worker goroutines; results are bit-identical for every worker count.
//
// Every shortcut is exact in law; bulk_test.go and internal/core's
// equivalence tests check both paths against each other statistically, and
// the per-agent path remains available via Config.Kernel.

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// BulkProtocol is an optional extension of Protocol enabling the batched
// kernel. Implementations must behave identically (in law) under per-agent
// and batched execution; the engine chooses the path.
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
	// per-message side effects. The dense kernel requires it.
	BulkAccumulate(round int) bool

	// BulkAccumulators exposes the per-agent packed reception counters
	// (ones in the high 32 bits, total in the low 32). May return nil if
	// the protocol does not support accumulator delivery; the engine then
	// always delivers through BulkDeliver. In sharded rounds the engine's
	// workers write disjoint contiguous ranges of the array concurrently
	// (agent a is only ever touched by the shard owning a), so no protocol
	// synchronization is needed.
	BulkAccumulators() []uint64
}

const (
	// pmFieldBits is the width of the per-message inbox's two arrival
	// counters (ones and total). It bounds the population the packed word
	// can represent: a round delivers at most n arrivals to one receiver,
	// so both counters must hold up to n.
	pmFieldBits = 28
	// pmFieldMask extracts one counter field.
	pmFieldMask = 1<<pmFieldBits - 1
	// pmStampShift positions the 8-bit round stamp above the two counter
	// fields (8 + 2×28 = 64).
	pmStampShift = 2 * pmFieldBits
	// maxBulkN bounds the population the batched kernel accepts: with
	// n < 2²⁸ the packed counters cannot overflow even if every message
	// of a round lands on a single receiver. Beyond it the engine falls
	// back to the per-agent path.
	maxBulkN = 1 << pmFieldBits
	// MaxBatchedN is maxBulkN for callers outside the package: populations
	// of this size or larger cannot run on the batched kernel, so
	// Config.Kernel = KernelBatched panics for them (KernelAuto falls back
	// to the per-agent path, visibly via Result.Paths). Admission layers
	// should validate against it instead of letting Run panic.
	MaxBatchedN = maxBulkN
	// denseMinMessages gates the dense kernel: below it the per-message
	// path is at least as fast and the per-bucket sampling overhead is
	// not worth amortizing.
	denseMinMessages = 256
	// denseShift sets the dense receiver-bucket width (8192 slots ×
	// 4 bytes = one L1-sized inbox slice per bucket).
	denseShift = 13
	denseWidth = 1 << denseShift
)

// bulkState holds the batched kernel's reusable buffers. It is allocated
// lazily on the first batched run of an engine and survives Reset.
type bulkState struct {
	// Per-message path: packed inbox stamp(8)|ones(28)|count(28).
	pmStamp uint64
	pmInbox []uint64
	touched []int32
	accR    []int32
	accB    []channel.Bit

	// Crash-fault scratch: sender lists filtered against the FailurePlan
	// for the current round.
	liveZeros []int32
	liveOnes  []int32

	// Legacy dense path: packed inbox stamp(8)|ones(12)|count(12), shared
	// by the serial and sharded executions (shards own disjoint slot
	// ranges). The keyed tree and sparse walker keep their own stamp-free
	// inbox (keyedState.treeInbox), so only the legacy schedule allocates
	// and clears these.
	dStamp uint32
	dInbox []uint32
	serial denseRun

	// Sharded execution (shard.go): per-virtual-shard contexts, the
	// per-round multinomial split scratch, and the resolved worker count.
	shards  []denseRun
	shardLo []int
	sizes   []int
	k0s     []int
	k1s     []int
	seeds   []uint64
	workers int

	// Per-run capabilities, refreshed by selectKernel.
	accs        []uint64
	noiseThresh uint64
	denseOK     bool
}

// denseRun is one execution context of the dense aggregate kernel: its
// random stream plus the per-round scratch the bucket loop needs. The
// serial path owns a single context fed by the engine stream; the sharded
// path owns one per virtual shard, each reseeded from the master stream
// every round.
type denseRun struct {
	r        *rng.RNG
	rngStore rng.RNG // backing storage for per-shard substreams
	drawBuf  []uint64
	spill    []denseSpill
	deferred []int32
	accepted int64
	// Pad to 128 bytes so adjacent shard contexts in bulkState.shards do
	// not share cache lines: every draw mutates rngStore, and false
	// sharing between concurrently running shards would bleed away the
	// multi-core speedup the sharded kernel exists for.
	_ [8]byte
}

// denseSpill records arrivals beyond the packed 12-bit counter of a dense
// inbox slot — unreachable in practice (arrivals per slot are ≈Poisson(1))
// but required for exactness.
type denseSpill struct {
	slot        int32
	count, ones uint32
}

func (b *bulkState) reset() {
	b.pmStamp = 0
	for i := range b.pmInbox {
		b.pmInbox[i] = 0
	}
	b.dStamp = 0
	for i := range b.dInbox {
		b.dInbox[i] = 0
	}
	// The denseRun spill/deferred scratch needs no clearing here:
	// runRange truncates both at the start of every call.
}

// selectKernel decides the execution path for this run and prepares the
// bulk state. Called once per Run, after protocol Setup.
func (e *Engine) selectKernel(p Protocol) (BulkProtocol, bool) {
	bp, ok := p.(BulkProtocol)
	capable := ok && bp.BulkEnabled() && e.cfg.N < maxBulkN
	switch e.cfg.Kernel {
	case KernelPerAgent:
		return nil, false
	case KernelBatched:
		if !capable {
			panic(fmt.Sprintf("sim: KernelBatched requires a bulk-capable protocol and config (protocol %q, bulk=%v, n=%d)",
				p.Name(), ok, e.cfg.N))
		}
	default:
		if !capable {
			return nil, false
		}
	}
	if e.bulk == nil {
		e.bulk = &bulkState{}
	}
	b := e.bulk
	b.accs = bp.BulkAccumulators()
	un, uniform := e.cfg.Channel.(channel.UniformNoise)
	if uniform {
		b.noiseThresh = channel.FlipThreshold53(un.UniformFlipProb())
	}
	// Crash plans are dense-compatible: senders are filtered per round by
	// stepBulk and crashed receivers are masked in the resolve scan, with
	// the same accounting as the per-agent path. Self-message exclusion is
	// not — aggregate placement has no per-message sender identity — so
	// the dense paths require AllowSelfMessages.
	b.denseOK = e.cfg.AllowSelfMessages && uniform && b.accs != nil
	e.prepareShards()
	return bp, true
}

// stepBulk runs one round through the batched kernel.
func (e *Engine) stepBulk(bp BulkProtocol) {
	round := e.round
	zeros, ones := bp.BulkSenders(round)
	if f := e.cfg.Failures; f != nil {
		// Crashed agents neither send nor count toward MessagesSent,
		// exactly as on the per-agent path (the crash check there precedes
		// the Send call). Protocols stay failure-agnostic: the cached
		// sender lists are filtered per round on the engine side.
		b := e.bulk
		b.liveZeros = filterLive(b.liveZeros[:0], zeros, f, round)
		b.liveOnes = filterLive(b.liveOnes[:0], ones, f, round)
		zeros, ones = b.liveZeros, b.liveOnes
	}
	m := len(zeros) + len(ones)
	e.sent += int64(m)
	e.mark(telemetry.PhaseSenders)
	if m > 0 {
		if e.bulk.denseOK && m >= denseMinMessages && bp.BulkAccumulate(round) {
			// The sharded/serial choice depends only on (n, m), never on
			// Config.Shards, so the draw schedule — and hence the result —
			// is identical for every worker count.
			if len(e.bulk.shards) >= 2 && m >= shardMinMessages {
				e.paths.Sharded++
				e.stepSharded(len(zeros), len(ones), round)
			} else {
				e.paths.Dense++
				e.stepDense(len(zeros), len(ones), round)
			}
			// The dense paths fuse split, placement, resolve and noise in
			// their bucket sweep; the whole round bills to collision.
			e.mark(telemetry.PhaseCollision)
		} else {
			e.paths.PerMessage++
			e.stepPerMessage(bp, zeros, ones, round)
		}
	} else {
		e.paths.Quiet++
	}
	bp.EndRound(round)
	e.mark(telemetry.PhaseAccumulate)
}

// stepPerMessage is the batched per-message path: exact for every Config
// (self-message exclusion, drops, crash plans, any channel) and every
// BulkProtocol round. It differs from the per-agent path only in skipping
// non-senders and batching noise and delivery; crashed senders are already
// filtered out by stepBulk and crashed receivers are masked after
// collision resolution.
func (e *Engine) stepPerMessage(bp BulkProtocol, zeros, ones []int32, round int) {
	b := e.bulk
	if b.pmInbox == nil {
		b.pmInbox = make([]uint64, e.cfg.N)
		b.touched = make([]int32, 0, e.cfg.N)
	}
	b.pmStamp++
	if b.pmStamp == 1<<(64-pmStampShift) {
		for i := range b.pmInbox {
			b.pmInbox[i] = 0
		}
		b.pmStamp = 1
	}
	stamp := b.pmStamp << pmStampShift
	b.touched = b.touched[:0]

	n := uint32(e.cfg.N)
	r := e.engineRNG
	drop := e.cfg.DropProb
	self := e.cfg.AllowSelfMessages
	throw := func(senders []int32, inc uint64) {
		for _, s := range senders {
			if drop > 0 && r.Bernoulli(drop) {
				e.dropped++
				continue
			}
			var dst uint32
			if self {
				dst = r.Uint32n(n)
			} else {
				dst = r.Uint32n(n - 1)
				if dst >= uint32(s) {
					dst++
				}
			}
			v := b.pmInbox[dst]
			if v>>pmStampShift != b.pmStamp {
				b.pmInbox[dst] = stamp | inc
				b.touched = append(b.touched, int32(dst))
			} else {
				b.pmInbox[dst] = v + inc
			}
		}
	}
	throw(zeros, 1)
	throw(ones, 1<<pmFieldBits|1)
	e.mark(telemetry.PhasePlacement)

	// Resolve collisions: accept a one with probability ones/count. The
	// draw happens on every collision, mixed bits or not, so the engine
	// stream consumption depends only on the message pattern and the
	// failure plan, never on bit values — matching the per-agent path's
	// invariant that protocols with identical send patterns see identical
	// engine randomness.
	f := e.cfg.Failures
	b.accR = b.accR[:0]
	b.accB = b.accB[:0]
	for _, dst := range b.touched {
		v := b.pmInbox[dst]
		cnt := v & pmFieldMask
		on := v >> pmFieldBits & pmFieldMask
		if f != nil && f.Crashed(int(dst), round) {
			// Crashed receiver: every arrival is lost — the per-agent path
			// books cnt−1 collision losses plus one crash loss.
			e.dropped += int64(cnt)
			continue
		}
		e.accepted++
		e.dropped += int64(cnt - 1)
		var bit channel.Bit
		if cnt == 1 {
			bit = channel.Bit(on)
		} else if r.Uint64n(cnt) < on {
			bit = 1
		}
		b.accR = append(b.accR, dst)
		b.accB = append(b.accB, bit)
	}
	e.mark(telemetry.PhaseCollision)
	channel.TransmitAll(e.cfg.Channel, b.accB, e.channelRNG)
	e.mark(telemetry.PhaseNoise)
	bp.BulkDeliver(b.accR, b.accB, round)
}

// filterLive appends to dst the senders not crashed in round.
func filterLive(dst, senders []int32, f FailurePlan, round int) []int32 {
	for _, s := range senders {
		if !f.Crashed(int(s), round) {
			dst = append(dst, s)
		}
	}
	return dst
}

// stepDense is the serial aggregate kernel for exchangeable messages
// (AllowSelfMessages, uniform noise, accumulator delivery). Recipient
// sampling collapses to an exact sequential multinomial: one binomial draw
// per bit class per 8192-slot receiver bucket, then in-bucket placement
// from masked 16-bit lanes of single 64-bit draws. Collision resolution
// and noise are co-sampled from one draw per slot in a branchless scan
// that writes straight into the protocol's accumulators. Everything is
// exact in law; only the engine-stream draw schedule differs from the
// other paths.
func (e *Engine) stepDense(m0, m1, round int) {
	b := e.bulk
	m0, m1 = e.denseRoundBegin(m0, m1)
	placed := m0 + m1

	d := &b.serial
	d.r = e.engineRNG
	d.accepted = 0
	d.runRange(e, 0, e.cfg.N, m0, m1, round)

	e.denseRoundEnd(placed, d.accepted)
}

// denseRoundBegin is the dense round prologue shared by the serial and
// sharded executions: advance the inbox stamp (clearing the inbox on the
// 8-bit wrap) and thin the message counts by DropProb from the master
// stream. The engine alternates between stepDense and stepSharded per
// round on the same master-stream schedule, so keeping this in one place
// is what keeps their draw schedules from drifting apart.
func (e *Engine) denseRoundBegin(m0, m1 int) (int, int) {
	e.denseStampAdvance()
	if q := e.cfg.DropProb; q > 0 {
		r := e.engineRNG
		d0 := r.Binomial(m0, q)
		d1 := r.Binomial(m1, q)
		e.dropped += int64(d0 + d1)
		m0 -= d0
		m1 -= d1
	}
	return m0, m1
}

// denseStampAdvance advances the legacy dense inbox stamp, allocating the
// inbox on first use and clearing it on the 8-bit stamp wrap.
func (e *Engine) denseStampAdvance() {
	b := e.bulk
	if b.dInbox == nil {
		b.dInbox = make([]uint32, e.cfg.N)
	}
	b.dStamp++
	if b.dStamp == 1<<8 {
		for i := range b.dInbox {
			b.dInbox[i] = 0
		}
		b.dStamp = 1
	}
}

// denseRoundEnd books a dense round's aggregate accounting: every placed
// message that was not the accepted one of its slot is a collision loss
// (including all arrivals at crashed receivers).
func (e *Engine) denseRoundEnd(placed int, accepted int64) {
	e.accepted += accepted
	e.dropped += int64(placed) - accepted
}

// runRange executes the dense bucket loop over the slot range
// [lo, lo+size), placing k0 zero-messages and k1 one-messages uniformly
// into it and resolving every occupied slot into the protocol
// accumulators. All randomness comes from d.r; all writes stay inside the
// range (d's scratch, dInbox[lo:lo+size], accs[lo:lo+size]), which is what
// lets the sharded kernel run disjoint ranges concurrently.
func (d *denseRun) runRange(e *Engine, lo, size, k0, k1, round int) {
	b := e.bulk
	r := d.r
	d.spill = d.spill[:0]
	d.deferred = d.deferred[:0]

	stamp := b.dStamp
	thresh := b.noiseThresh
	acc := b.accs
	f := e.cfg.Failures

	rem0, rem1 := k0, k1
	slotsLeft := size
	for blo := lo; blo < lo+size; blo += denseWidth {
		bsize := denseWidth
		if blo+bsize > lo+size {
			bsize = lo + size - blo
		}
		var c0, c1 int
		if bsize == slotsLeft {
			c0, c1 = rem0, rem1
		} else {
			pb := float64(bsize) / float64(slotsLeft)
			c0 = r.Binomial(rem0, pb)
			c1 = r.Binomial(rem1, pb)
		}
		rem0 -= c0
		rem1 -= c1
		slotsLeft -= bsize

		// Pre-fill one batch of raw draws for the bucket — placement
		// lanes first, then one draw per slot for the resolve scan — so
		// the generator state stays in registers (rng.Fill) instead of
		// paying a call per draw.
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
		r.Fill(buf)

		inbox := b.dInbox[blo : blo+bsize : blo+bsize]
		if pow2 {
			d.placePow2(stamp, blo, inbox, c0, 1, buf[:nd0])
			d.placePow2(stamp, blo, inbox, c1, 1<<12|1, buf[nd0:nd0+nd1])
		} else {
			d.placeAny(stamp, blo, inbox, c0, 1)
			d.placeAny(stamp, blo, inbox, c1, 1<<12|1)
		}

		// Branchless resolve: one pre-drawn word per slot regardless of
		// occupancy, so the scan never stalls on data-dependent branches.
		// Low 11 bits drive the accept-one draw (Lemire multiply-shift
		// with its rare rejection handled out of line): its value is
		// uniform on [0, cnt), so "value < ones" accepts a one with
		// probability exactly ones/cnt — covering the unanimous cases
		// too. The top 53 bits are the exact integer form of the
		// channel's Bernoulli flip.
		rbuf := buf[nd0+nd1:]
		rbuf = rbuf[:len(inbox)]
		accSlice := acc[blo : blo+bsize : blo+bsize]
		accepted := int64(0)
		for i := range inbox {
			v := inbox[i]
			occ := uint64(0)
			if v>>24 == stamp {
				occ = 1
			}
			cnt := uint64(v & 0xfff)
			on := uint64(v >> 12 & 0xfff)
			if occ == 1 && f != nil && f.Crashed(blo+i, round) {
				// Crashed receiver: every arrival is lost. Masking the
				// occupancy keeps the slot out of the accumulator write
				// and the accepted count — the aggregate drop accounting
				// then books all cnt arrivals as losses, exactly the
				// per-agent path's cnt−1 collision + 1 crash losses.
				occ = 0
			}
			if cnt >= 2048 && occ == 1 {
				// Beyond the 11-bit Lemire range (and, at 0xfff, into the
				// spill list): resolve with full-width arithmetic instead.
				d.deferred = append(d.deferred, int32(blo+i))
				continue
			}
			x := rbuf[i]
			prod := (x & 2047) * cnt
			if prod&2047 < cnt && occ == 1 && on != 0 && on != cnt {
				// Possible Lemire rejection (probability < cnt/2048):
				// apply the full rejection rule to this draw, redrawing
				// only if it genuinely fails.
				x, prod = d.redraw(x, prod, cnt)
			}
			bit := uint64(0)
			if prod>>11 < on {
				bit = 1
			}
			if x>>11 < thresh {
				bit ^= 1
			}
			accSlice[i] += (bit<<32 | 1) * occ
			accepted += int64(occ)
		}
		// One struct write per bucket, not per slot: d sits next to other
		// shards' contexts and the scan must not bounce that line around.
		d.accepted += accepted
	}

	for _, slot := range d.deferred {
		d.resolveDeferred(b, slot)
		d.accepted++
	}
}

// placePow2 throws k messages of one bit uniformly into the
// power-of-two-sized slot range starting at lo, consuming four placements
// per pre-drawn 64-bit word via masked 16-bit lanes. The stamp update is
// branchless (the first-arrival branch would mispredict at typical
// occupancies); the saturation branch is never taken in practice and
// predicts perfectly.
func (d *denseRun) placePow2(stamp uint32, lo int, inbox []uint32, k int, inc uint32, draws []uint64) {
	st := stamp << 24
	i := 0
	for _, x := range draws {
		lanes := 4
		if k-i < 4 {
			lanes = k - i
		}
		for lane := 0; lane < lanes; lane++ {
			slot := int(x) & (len(inbox) - 1)
			x >>= 16
			v := inbox[slot]
			m := uint32(0)
			if v>>24 == stamp {
				m = ^uint32(0)
			}
			nv := (v&m | st&^m) + inc
			if nv&0xfff == 0 {
				// 12-bit arrival counter saturated: freeze the packed
				// entry and divert the arrival to the exact spill list.
				nv -= inc
				d.spillAdd(int32(lo+slot), inc>>12)
			}
			inbox[slot] = nv
		}
		i += lanes
	}
}

// placeAny is the general-size placement (a range's tail bucket): one
// unbiased draw per placement.
func (d *denseRun) placeAny(stamp uint32, lo int, inbox []uint32, k int, inc uint32) {
	r := d.r
	st := stamp << 24
	for i := 0; i < k; i++ {
		slot := int(r.Uint32n(uint32(len(inbox))))
		v := inbox[slot]
		m := uint32(0)
		if v>>24 == stamp {
			m = ^uint32(0)
		}
		nv := (v&m | st&^m) + inc
		if nv&0xfff == 0 {
			nv -= inc
			d.spillAdd(int32(lo+slot), inc>>12)
		}
		inbox[slot] = nv
	}
}

// redraw completes the Lemire rejection rule for a collided slot's
// accept-one draw: value (u·cnt)>>11 is kept only when the low bits of the
// product clear 2¹¹ mod cnt, which makes the result exactly uniform over
// [0, cnt). The caller's draw is tested first — discarding it when it is
// in fact acceptable would leave exactly the bias of an unrejected
// multiply-shift — and fresh draws are taken only on genuine rejection.
// Returns the final raw draw (whose top 53 bits feed the noise flip) and
// product.
func (d *denseRun) redraw(x, prod, cnt uint64) (uint64, uint64) {
	r := d.r
	reject := 2048 % cnt
	for prod&2047 < reject {
		x = r.Uint64()
		prod = (x & 2047) * cnt
	}
	return x, prod
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

// resolveDeferred handles a slot whose arrival count outgrew the 11-bit
// Lemire accept draw (cnt ≥ 2048) or saturated the packed counter entirely
// (cnt == 0xfff, with the overflow in the spill list): merge the packed
// prefix with any spill tail and resolve with full-width arithmetic.
// Crashed receivers are masked before deferral, so every deferred slot is
// live.
func (d *denseRun) resolveDeferred(b *bulkState, slot int32) {
	v := b.dInbox[slot]
	cnt := uint64(v & 0xfff)
	on := uint64(v >> 12 & 0xfff)
	for _, s := range d.spill {
		if s.slot == slot {
			cnt += uint64(s.count)
			on += uint64(s.ones)
		}
	}
	r := d.r
	var bit uint64
	switch {
	case on == 0:
	case on == cnt:
		bit = 1
	default:
		if r.Uint64n(cnt) < on {
			bit = 1
		}
	}
	if r.Uint64()>>11 < b.noiseThresh {
		bit ^= 1
	}
	b.accs[slot] += bit<<32 | 1
}
