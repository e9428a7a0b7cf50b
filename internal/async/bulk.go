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
// Reception is counting in every round whose attribution phase is Stage
// II, so those rounds may take the engine's tree: the engine adds each
// accepted bit straight into the packed acc array (BulkAccumulate,
// BulkAccumulators), and every other round goes through BulkDeliver
// (replaying Receive in order, with the phase attribution hoisted per
// round). ModeKnownOffsets has no first contacts: every clock runs from
// Setup. ModeSelfSync has one exception to counting, a reception at an
// agent without a clock, which starts the clock instead. Under the Flip
// model a receiver accepts at most one message per round and a clockless
// agent's acc word is always 0, so after a tree round a nonzero acc word
// at a clockless agent is exactly one first contact; EndRound folds it
// (acc back to 0, the clock started) before any phase finalization, in
// ascending agent order, so the state equals that of BulkDeliver taking
// the same receptions in ascending receiver order (tree_test.go holds the
// two to it). The fold scans the agents still without a clock, so a
// self-sync round accumulates only when they are no more than the
// round's listed senders: the fold then costs no more than the round's
// own sender work. A heavily crashed run, whose crashed agents never get
// a clock, keeps its Stage II on BulkDeliver.

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
	p.foldRound = -1
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
		zeros, ones := p.classSenders(&p.classes[ci], g)
		p.bulkZeros = append(p.bulkZeros, zeros...)
		p.bulkOnes = append(p.bulkOnes, ones...)
	}
	return p.bulkZeros, p.bulkOnes
}

// listedSenders is the total length of BulkSenders(g)'s lists, counted
// from the offset classes alone, so the answer is the same whichever
// interface collected the round's senders.
func (p *Protocol) listedSenders(g int) int {
	listed := 0
	for ci := range p.classes {
		zeros, ones := p.classSenders(&p.classes[ci], g)
		listed += len(zeros) + len(ones)
	}
	return listed
}

// classSenders returns class c's senders in global round g: inside the
// ModeSelfSync activation window every member pushes the content-free
// Zero (as in Send, the window outranks phase membership); inside phase
// k's local window, the class's cached eligible senders for k; none in a
// gap.
func (p *Protocol) classSenders(c *offsetClass, g int) (zeros, ones []int32) {
	l := g + c.base
	if p.mode == ModeSelfSync && l >= -2*p.preludeLen && l < -p.preludeLen {
		return c.members, nil
	}
	k := p.phaseOfLocal(l)
	if k < 0 {
		return nil, nil
	}
	if c.cachedPhase != k || c.cachedGen != p.sendersGen {
		p.rebuildClassSenders(c, k)
	}
	return c.zeros, c.ones
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

// BulkAccumulate implements sim.Protocol: a round whose attribution
// phase is Stage II is counting, acc[a] += bit<<32 | 1, regardless of the
// receiver's activation state, so the engine may deliver straight into
// the accumulators. While some ModeSelfSync agent has no clock, a round
// additionally needs those agents to number no more than the round's
// listed senders (see the file comment), and it arms EndRound's
// first-contact fold for round g. Both counts come from protocol state alone, so the
// answer does not depend on how the senders were collected.
func (p *Protocol) BulkAccumulate(g int) bool {
	k := p.phaseOfGlobal(g)
	if k < 0 || p.phases[k].ref.Stage != core.StageII {
		return false
	}
	if clockless := p.n - p.preludeDone; p.mode == ModeSelfSync && clockless > 0 {
		if clockless > p.listedSenders(g) {
			return false
		}
		p.foldRound = g
	}
	return true
}

// BulkAccumulators implements sim.Protocol. In Stage II rounds the
// engine's sharded workers add into disjoint ranges of acc concurrently,
// meeting at a barrier before EndRound — the clock machinery, the
// first-contact fold included, never runs inside those rounds, so no
// synchronization is needed here either.
func (p *Protocol) BulkAccumulators() []uint64 { return p.acc }

// foldFirstContacts turns round g's accumulated receptions at clockless
// agents into first contacts, in ascending agent order: a nonzero acc
// word there is exactly one reception (see the file comment). It scans
// p.clockless, the ascending list of agents that had no clock at Setup
// or at the last fold, and keeps only those that still have none.
func (p *Protocol) foldFirstContacts(g int) {
	w := 0
	for _, a := range p.clockless {
		switch {
		case p.hasBase[a]:
			// Clocked since the last fold, by a BulkDeliver round.
		case p.acc[a] != 0:
			p.acc[a] = 0
			p.firstContact(int(a), g)
		default:
			p.clockless[w] = a
			w++
		}
	}
	p.clockless = p.clockless[:w]
}
