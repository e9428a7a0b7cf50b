package async

import (
	"breathe/internal/channel"
	"breathe/internal/core"
)

// The engine's bulk interface (the Bulk methods of sim.Protocol). The
// asynchronous executions are dominated by quiescent dilation gaps: each
// phase of the synchronous schedule is stretched by the clock-spread bound
// D, and in most global rounds no agent's local clock falls inside a send
// window at all. A Send scan would pay Θ(n) dispatches for every one of
// those silent rounds; with D = Θ(log n) that multiplies the whole run
// cost by the dilation factor. The bulk sender lists remove it.
//
// The construction rests on the clock structure. An agent's local clock is
// ℓ_a(g) = g + base[a], where base is fixed once: at Setup for
// ModeKnownOffsets (base = c0 ∈ [0, D)) and at first contact for
// ModeSelfSync (base = −(informedAt + 2L)). Agents with equal base are
// indistinguishable to the scheduler — they enter and leave every send
// window together — so the protocol groups them into offset classes. Per
// round, BulkSenders scans the classes (O(#classes), with #classes ≤ D for
// known offsets and ≤ #first-contact rounds for self-sync), and only
// in-window classes contribute senders: a class inside the ModeSelfSync
// activation window contributes every member (they all broadcast the
// content-free Zero), a class inside phase k's local window contributes
// its cached eligible senders for k.
//
// The per-class eligibility lists (hasOpinion, grouped by opinion bit,
// with Stage I's levelPos < k filter) change only when opinions change —
// at phase finalization, which bumps sendersGen — or when the class gains
// a member at first contact, which invalidates that class's cache. Rounds
// therefore cost O(#classes + senders) instead of Θ(n).
//
// Reception goes through BulkDeliver (replaying Receive in order, with
// the phase attribution hoisted per round), except that ModeKnownOffsets
// additionally qualifies for the engine's dense accumulator path in
// Stage II rounds: with every clock running from Setup there are no first
// contacts, and Stage II reception is pure counting into the packed acc
// array — see BulkAccumulate. ModeSelfSync reception is stateful and
// always declines the dense path.

// offsetClass groups the agents sharing one clock base. All members read
// the same local clock, so the class as a whole is inside or outside any
// send window.
type offsetClass struct {
	base    int
	members []int32

	// Cached eligible senders for phase cachedPhase at generation
	// cachedGen, grouped by the bit they send. cachedPhase = −1 marks the
	// cache invalid (fresh class, or a member joined at first contact).
	zeros, ones []int32
	cachedPhase int
	cachedGen   uint64
}

// resetBulk clears the class bookkeeping for a fresh run (called from
// Setup).
func (p *Protocol) resetBulk() {
	p.classes = p.classes[:0]
	p.classIdx = make(map[int]int)
	p.sendersGen = 0
	p.bulkZeros = p.bulkZeros[:0]
	p.bulkOnes = p.bulkOnes[:0]
}

// classAdd registers agent a (whose base is set) in its offset class,
// creating the class on first use.
func (p *Protocol) classAdd(a int) {
	base := p.base[a]
	ci, ok := p.classIdx[base]
	if !ok {
		ci = len(p.classes)
		p.classes = append(p.classes, offsetClass{base: base, cachedPhase: -1})
		p.classIdx[base] = ci
	}
	c := &p.classes[ci]
	c.members = append(c.members, int32(a))
	c.cachedPhase = -1
}

// BulkSenders implements sim.Protocol: the union of the in-window
// classes' sender lists for global round g. Equals, as a set with bits,
// {(a, bit) : Send(a, g) = (bit, true)} — bulk_test.go cross-checks that
// agent by agent along per-agent executions.
func (p *Protocol) BulkSenders(g int) (zeros, ones []int32) {
	p.bulkZeros = p.bulkZeros[:0]
	p.bulkOnes = p.bulkOnes[:0]
	for ci := range p.classes {
		c := &p.classes[ci]
		l := g + c.base
		if p.mode == ModeSelfSync && l >= -2*p.preludeLen && l < -p.preludeLen {
			// Activation broadcast: every member pushes the content-free
			// Zero (as in Send, the window outranks phase membership).
			p.bulkZeros = append(p.bulkZeros, c.members...)
			continue
		}
		k := p.phaseOfLocal(l)
		if k < 0 {
			continue
		}
		if c.cachedPhase != k || c.cachedGen != p.sendersGen {
			p.rebuildClassSenders(c, k)
		}
		p.bulkZeros = append(p.bulkZeros, c.zeros...)
		p.bulkOnes = append(p.bulkOnes, c.ones...)
	}
	return p.bulkZeros, p.bulkOnes
}

// rebuildClassSenders refreshes class c's eligible-sender cache for phase
// k: opinionated members, excluding (in Stage I) agents not yet past their
// activation phase — the same predicate Send applies per agent.
func (p *Protocol) rebuildClassSenders(c *offsetClass, k int) {
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	stageI := p.phases[k].ref.Stage == core.StageI
	for _, a := range c.members {
		if !p.hasOpinion[a] {
			continue
		}
		if stageI && !(p.levelPos[a] < int32(k)) {
			continue
		}
		if p.opinion[a] == channel.Zero {
			c.zeros = append(c.zeros, a)
		} else {
			c.ones = append(c.ones, a)
		}
	}
	c.cachedPhase = k
	c.cachedGen = p.sendersGen
}

// BulkDeliver implements sim.Protocol: equivalent to one Receive per
// accepted delivery, in order, with the per-message phase attribution
// (one binary search per Receive) hoisted out of the loop — the arrival
// round determines the phase for every delivery of the round. The Stage
// II counter update is additionally inlined: it is the overwhelmingly
// common case and a single read-modify-write per receiver.
func (p *Protocol) BulkDeliver(receivers []int32, bits []channel.Bit, g int) {
	selfsync := p.mode == ModeSelfSync
	k := p.phaseOfGlobal(g)
	if k < 0 {
		// Prelude traffic or dead-gap arrivals: only first contacts act.
		if selfsync {
			for _, a := range receivers {
				if !p.hasBase[a] {
					p.firstContact(int(a), g)
				}
			}
		}
		return
	}
	if p.phases[k].ref.Stage == core.StageII {
		for i, a := range receivers {
			if selfsync && !p.hasBase[a] {
				p.firstContact(int(a), g)
				continue
			}
			p.acc[a] += uint64(bits[i])<<32 + 1
		}
		return
	}
	for i, a := range receivers {
		if selfsync && !p.hasBase[a] {
			p.firstContact(int(a), g)
			continue
		}
		p.receiveAt(int(a), bits[i], k)
	}
}

// BulkAccumulate implements sim.Protocol. For ModeKnownOffsets every
// agent's clock runs from Setup (no first contacts), and in a round whose
// attribution phase is Stage II every reception is exactly
// acc[a] += bit<<32 | 1 regardless of the receiver's activation state —
// pure counting, so the engine's dense kernel may deliver straight into
// the accumulators. ModeSelfSync reception is stateful (first-contact
// clock starts) and always declines.
func (p *Protocol) BulkAccumulate(g int) bool {
	if p.mode == ModeSelfSync {
		return false
	}
	k := p.phaseOfGlobal(g)
	return k >= 0 && p.phases[k].ref.Stage == core.StageII
}

// BulkAccumulators implements sim.Protocol; nil (ModeSelfSync) routes
// every delivery through BulkDeliver. For ModeKnownOffsets the engine's
// sharded workers add into disjoint ranges of acc concurrently during
// Stage II rounds, meeting at a barrier before EndRound — the clock
// machinery never runs inside those rounds, so no synchronization is
// needed here either.
func (p *Protocol) BulkAccumulators() []uint64 {
	if p.mode == ModeSelfSync {
		return nil
	}
	return p.acc
}
