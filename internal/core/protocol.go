package core

import (
	"fmt"
	"slices"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// Protocol is the paper's algorithm as a sim.Protocol. One value runs
// either the noisy broadcast problem (a single source knows the correct
// opinion B) or the noisy majority-consensus problem (an initial set A of
// opinionated agents whose majority is B), selected by the constructor.
//
// The target opinion is used only to initialize the source/initial set
// and to label telemetry; no per-agent decision reads it, which makes the
// algorithm symmetric in the paper's sense (§1.3.4): the message pattern
// is identical whether B is 0 or 1.
type Protocol struct {
	params  Params
	sched   *Schedule
	target  channel.Bit
	name    string
	variant Variant

	// Consensus-mode initialization: the first correctA agents start with
	// the target opinion, the next wrongA with its negation. Zero values
	// select broadcast mode (agent 0 is the source).
	consensus bool
	correctA  int
	wrongA    int

	n int

	// Draw-schedule root: the engine hands the run key over in Setup, and
	// the phase-boundary draws below take cells of
	// rng.StreamSchedule addressed by (round, agent) — a pure function of
	// the scenario, independent of kernel and execution order.
	drawKey rng.Key

	activated  []bool
	level      []int32 // Stage I phase in which the agent was activated
	opinion    []channel.Bit
	hasOpinion []bool
	// acc packs the per-phase reception counters of each agent as
	// ones<<32 | total. The single-word layout is shared with the batched
	// kernel's accumulator delivery (sim.Protocol.BulkAccumulators), which
	// adds bit<<32 | 1 per accepted message exactly like receiveOne does.
	acc []uint64

	// Maintained sender index: the sender set and the bits sent are
	// constant within a phase (opinions change only at phase
	// boundaries), so the phase-finalization loops — which already visit
	// every agent — keep these lists current incrementally, and
	// BulkSenders serves them in O(1) with no population scan. Both
	// lists stay ascending by agent id, the order a per-agent Send scan
	// reports the same senders in. idxUnsorted marks an index receiveOne
	// appended to mid-phase (NoBreathe); ensurePhase sorts it.
	idxZeros, idxOnes []int32
	idxUnsorted       bool

	// majority decides Stage II; its rows are dropped in Setup.
	majority MajorityRule

	// Cached phase lookup for the round currently executing.
	curRound int
	curRef   PhaseRef
	curLast  bool
	curOK    bool

	telem Telemetry
}

// preActivatedLevel marks agents (the source, or the consensus set A) that
// already hold an opinion when their first scheduled phase begins. The
// value startPhase−1 makes the "send iff level < current phase" rule give
// them the paper's behaviour: the source transmits from phase 0 on, the
// set A from phase i_A on.
func (p *Protocol) preActivatedLevel() int32 {
	return int32(p.sched.StartPhase() - 1)
}

// NewBroadcast returns the noisy-broadcast protocol: agent 0 is the source
// and knows target; everyone else starts dormant.
func NewBroadcast(params Params, target channel.Bit) (*Protocol, error) {
	return NewBroadcastVariant(params, target, Variant{})
}

// NewBroadcastVariant returns the broadcast protocol with ablated decision
// rules (see Variant).
func NewBroadcastVariant(params Params, target channel.Bit, v Variant) (*Protocol, error) {
	sched, err := NewSchedule(params, 0)
	if err != nil {
		return nil, err
	}
	name := "breathe-broadcast"
	if !v.IsPaper() {
		name += "[" + v.Name() + "]"
	}
	return &Protocol{
		params:  params,
		sched:   sched,
		target:  target,
		name:    name,
		variant: v,
	}, nil
}

// NewConsensus returns the noisy majority-consensus protocol. correctA
// agents start with the target opinion and wrongA with its negation
// (correctA > wrongA makes target the majority opinion of A); all other
// agents start dormant. Execution begins at Stage I phase
// i_A = StartPhaseForConsensus(correctA + wrongA).
func NewConsensus(params Params, target channel.Bit, correctA, wrongA int) (*Protocol, error) {
	sizeA := correctA + wrongA
	if correctA < 0 || wrongA < 0 || sizeA == 0 {
		return nil, fmt.Errorf("core: invalid initial set sizes correct=%d wrong=%d", correctA, wrongA)
	}
	if sizeA > params.N {
		return nil, fmt.Errorf("core: initial set %d exceeds population %d", sizeA, params.N)
	}
	sched, err := NewSchedule(params, params.StartPhaseForConsensus(sizeA))
	if err != nil {
		return nil, err
	}
	return &Protocol{
		params:    params,
		sched:     sched,
		target:    target,
		name:      "breathe-consensus",
		consensus: true,
		correctA:  correctA,
		wrongA:    wrongA,
	}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return p.name }

// Params returns the parameters the protocol runs with.
func (p *Protocol) Params() Params { return p.params }

// Schedule exposes the phase schedule (round counts, phase spans).
func (p *Protocol) Schedule() *Schedule { return p.sched }

// Telemetry returns the per-phase statistics recorded so far. Valid after
// the run completes.
func (p *Protocol) Telemetry() *Telemetry { return &p.telem }

// Target returns the correct opinion B.
func (p *Protocol) Target() channel.Bit { return p.target }

// Setup implements sim.Protocol. Re-Setup reuses every per-agent array
// and the sender index's capacity: a warm protocol value allocates
// nothing here (senderindex_test.go pins it).
func (p *Protocol) Setup(n int, key rng.Key) {
	if n != p.params.N {
		panic(fmt.Sprintf("core: engine population %d != params.N %d", n, p.params.N))
	}
	p.n = n
	p.drawKey = key
	p.activated = resize(p.activated, n)
	p.level = resize(p.level, n)
	p.opinion = resize(p.opinion, n)
	p.hasOpinion = resize(p.hasOpinion, n)
	p.acc = resize(p.acc, n)
	p.idxZeros = p.idxZeros[:0]
	p.idxOnes = p.idxOnes[:0]
	p.curRound = -1
	p.majority = MajorityRule{}

	pre := p.preActivatedLevel()
	if p.consensus {
		for a := 0; a < p.correctA+p.wrongA; a++ {
			p.activated[a] = true
			p.level[a] = pre
			p.hasOpinion[a] = true
			if a < p.correctA {
				p.opinion[a] = p.target
			} else {
				p.opinion[a] = p.target.Flip()
			}
			p.indexAdd(a)
		}
	} else {
		p.activated[0] = true
		p.level[0] = pre
		p.hasOpinion[0] = true
		p.opinion[0] = p.target
		p.indexAdd(0)
	}
}

// resize returns s with length n and every element zeroed, reusing the
// backing array whenever it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// indexAdd appends opinionated agent a to the sender index. Callers
// append in ascending agent order, which keeps both lists sorted, or mark
// the index unsorted.
func (p *Protocol) indexAdd(a int) {
	if p.opinion[a] == channel.Zero {
		p.idxZeros = append(p.idxZeros, int32(a))
	} else {
		p.idxOnes = append(p.idxOnes, int32(a))
	}
}

// ensurePhase refreshes the cached schedule lookup for round, and sorts a
// sender index that the last round appended to.
func (p *Protocol) ensurePhase(round int) {
	if round == p.curRound {
		return
	}
	p.curRound = round
	p.curRef, _, p.curLast, p.curOK = p.sched.At(round)
	if p.idxUnsorted {
		slices.Sort(p.idxZeros)
		slices.Sort(p.idxOnes)
		p.idxUnsorted = false
	}
}

// Send implements sim.Protocol. Stage I: an agent transmits its initial
// opinion in every round of every phase after its activation phase
// ("breathe before speaking"). Stage II: every opinionated agent
// transmits its current opinion every round.
func (p *Protocol) Send(a, round int) (channel.Bit, bool) {
	p.ensurePhase(round)
	if !p.curOK || !p.hasOpinion[a] {
		return 0, false
	}
	if p.curRef.Stage == StageI && !p.variant.NoBreathe && !(p.level[a] < int32(p.curRef.Index)) {
		// Still in (or before) its activation phase: keep silent
		// ("breathe"). The NoBreathe ablation removes this rule.
		return 0, false
	}
	return p.opinion[a], true
}

// Receive implements sim.Protocol.
func (p *Protocol) Receive(a int, bit channel.Bit, round int) {
	p.ensurePhase(round)
	if !p.curOK {
		return
	}
	p.receiveOne(a, bit)
}

// receiveOne applies one accepted delivery for the cached phase.
func (p *Protocol) receiveOne(a int, bit channel.Bit) {
	switch p.curRef.Stage {
	case StageI:
		cur := int32(p.curRef.Index)
		if !p.activated[a] {
			p.activated[a] = true
			p.level[a] = cur
			p.acc[a] = uint64(bit)<<32 | 1
			if p.variant.NoBreathe {
				// Ablation: adopt the first message immediately and start
				// forwarding from the next round.
				p.opinion[a] = bit
				p.hasOpinion[a] = true
				p.indexAdd(a)
				p.idxUnsorted = true
			}
			return
		}
		if p.level[a] == cur && !p.hasOpinion[a] && !p.variant.FirstMessage {
			// Collecting messages during its activation phase. The
			// FirstMessage variant keeps only the activating message.
			p.acc[a] += uint64(bit)<<32 + 1
		}
		// Already-opinionated agents ignore Stage I receptions.
	case StageII:
		if p.variant.PrefixSubset {
			// Remark 2.10 alternative: only the first g samples form the
			// majority subset; later ones still count toward success.
			if int(p.acc[a]&accTotalMask) < p.subsetSize() {
				p.acc[a] += uint64(bit) << 32
			}
			p.acc[a]++
			return
		}
		p.acc[a] += uint64(bit)<<32 + 1
	}
}

// accTotalMask extracts the received-messages counter from an acc word.
const accTotalMask = 1<<32 - 1

// EndRound implements sim.Protocol: opinion updates happen only at phase
// boundaries.
func (p *Protocol) EndRound(round int) {
	p.ensurePhase(round)
	if !p.curOK || !p.curLast {
		return
	}
	switch p.curRef.Stage {
	case StageI:
		p.endStageIPhase(round)
		if round == p.sched.StageIEnd()-1 {
			p.finishStageI()
		}
	case StageII:
		p.endStageIIPhase(round)
	}
}

// endStageIPhase gives every agent activated during the ending phase its
// initial opinion: a message chosen uniformly at random among those it
// received this phase. With (ones, total) counters this is a
// Bernoulli(ones/total) draw — identical in law (Remark 2.1 notes the
// choice is order-invariant, which this form makes structural).
func (p *Protocol) endStageIPhase(round int) {
	cur := int32(p.curRef.Index)
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(round))
	newly, correct := 0, 0
	// The sender index for the next phase — every opinionated agent, the
	// just-finalized layer included — is rebuilt inside this loop: the
	// boundary already visits the whole population in ascending order, so
	// maintenance costs no extra scan and the lists stay sorted.
	p.idxZeros, p.idxOnes = p.idxZeros[:0], p.idxOnes[:0]
	for a := 0; a < p.n; a++ {
		if p.activated[a] && p.level[a] == cur {
			if !p.hasOpinion[a] {
				u := cell.Uint64n(uint64(a), p.acc[a]&accTotalMask)
				var bit channel.Bit
				if u < p.acc[a]>>32 {
					bit = channel.One
				} else {
					bit = channel.Zero
				}
				p.opinion[a] = bit
				p.hasOpinion[a] = true
			}
			// NoBreathe agents already committed at activation; they are
			// still counted as this phase's layer.
			newly++
			if p.opinion[a] == p.target {
				correct++
			}
			p.acc[a] = 0
		}
		if p.hasOpinion[a] {
			p.indexAdd(a)
		}
	}
	cum := 0
	if k := len(p.telem.StageI); k > 0 {
		cum = p.telem.StageI[k-1].Activated
	}
	_, start, length := p.currentSpan(round)
	p.telem.StageI = append(p.telem.StageI, StageIPhaseStat{
		Phase:          int(cur),
		StartRound:     start,
		Rounds:         length,
		Activated:      cum + newly,
		NewlyActivated: newly,
		NewlyCorrect:   correct,
	})
}

// finishStageI records the Stage I summary and clears counters so Stage II
// starts fresh.
func (p *Protocol) finishStageI() {
	holding, correct := 0, 0
	for a := 0; a < p.n; a++ {
		p.acc[a] = 0
		if p.hasOpinion[a] {
			holding++
			if p.opinion[a] == p.target {
				correct++
			}
		}
	}
	p.telem.ActivatedAfterStageI = holding
	p.telem.BiasAfterStageI = float64(correct)/float64(p.n) - 0.5
}

// subsetSize returns the majority-subset size of the Stage II phase the
// cached round belongs to.
func (p *Protocol) subsetSize() int {
	if p.curRef.Index == p.params.K+1 {
		return p.params.GammaFinal
	}
	return p.params.Gamma
}

// endStageIIPhase applies the majority rule: every successful agent (one
// that received at least the subset size g of samples) adopts the majority
// of a uniformly random g-subset of its samples, which MajorityRule
// decides from the agent's addressed word.
func (p *Protocol) endStageIIPhase(round int) {
	g := p.subsetSize()
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(round)) //breathe:stream-ok a round ends at most one phase, and that phase is Stage I or Stage II, never both
	successful, correct := 0, 0
	// Rebuild the sender index for the next phase inside the existing
	// full-population boundary loop, as in endStageIPhase: Stage II
	// senders are exactly the opinionated agents.
	p.idxZeros, p.idxOnes = p.idxZeros[:0], p.idxOnes[:0]
	for a := 0; a < p.n; a++ {
		if p.acc[a] == 0 && !p.hasOpinion[a] {
			continue // nothing received and nothing held: no store, no count
		}
		total := int(p.acc[a] & accTotalMask)
		ones := int(p.acc[a] >> 32)
		if total >= g {
			successful++
			switch {
			case p.variant.PrefixSubset:
				// ones holds the first-g prefix count, a whole g-sample: P is 0 or 1.
				p.opinion[a] = p.majority.Opinion(g, g, ones, 0)
			case p.variant.FullSampleMajority:
				twice := 2 * ones
				switch {
				case twice > total:
					p.opinion[a] = channel.One
				case twice < total:
					p.opinion[a] = channel.Zero
				default: // exact tie over all samples
					p.opinion[a] = channel.Bit(cell.Uint64(uint64(a)) & 1)
				}
			default:
				p.opinion[a] = p.majority.Opinion(g, total, ones, cell.Uint64(uint64(a)))
			}
			p.hasOpinion[a] = true
		}
		p.acc[a] = 0
		if p.hasOpinion[a] {
			p.indexAdd(a)
			if p.opinion[a] == p.target {
				correct++
			}
		}
	}
	_, start, length := p.currentSpan(round)
	p.telem.StageII = append(p.telem.StageII, StageIIPhaseStat{
		Phase:      p.curRef.Index,
		StartRound: start,
		Rounds:     length,
		Successful: successful,
		Correct:    correct,
		Population: p.n,
	})
}

// currentSpan returns the span of the phase containing round.
func (p *Protocol) currentSpan(round int) (ref PhaseRef, start, length int) {
	for pos := 0; pos < p.sched.NumPhases(); pos++ {
		r, s, l := p.sched.PhaseByPosition(pos)
		if round >= s && round < s+l {
			return r, s, l
		}
	}
	panic(fmt.Sprintf("core: round %d outside schedule", round))
}

// Done implements sim.Protocol.
func (p *Protocol) Done(round int) bool { return round >= p.sched.TotalRounds() }

// Opinion implements sim.Protocol.
func (p *Protocol) Opinion(a int) (channel.Bit, bool) {
	if p.hasOpinion == nil || !p.hasOpinion[a] {
		return 0, false
	}
	return p.opinion[a], true
}
