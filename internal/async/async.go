// Package async removes the global-clock assumption (paper Section 3).
//
// Two settings are implemented:
//
//   - Known bound D (§3.1): every agent's clock is initialized to an
//     arbitrary integer in [0, D). The protocol runs the synchronous
//     algorithm with phase i dilated to start at local time r_i + i·D, so
//     the global execution windows of distinct phases are disjoint and
//     the execution maps one-to-one onto a synchronous execution.
//   - Self-synchronizing (§3.2): clocks are unbounded, the standard
//     synchronous model starts an agent's clock at its first reception.
//     A preliminary activation phase (every informed agent broadcasts for
//     L = Θ(log n) rounds; every agent resets its clock 2L rounds after
//     its first reception) reduces the clock spread to at most L w.h.p.,
//     after which the §3.1 machinery runs with D = L.
//
// Cost: the dilation adds (#phases − 1)·D rounds and the activation phase
// adds O(log n); with D = Θ(log n) and O(log n) phases the total overhead
// is the additive O(log² n) of Theorem 3.1. Message complexity is
// unchanged — waiting rounds are free.
//
// Message attribution. A receiver must credit each message to the phase
// its sender was executing. Because consecutive phases are separated by
// an extra D of local time while clocks differ by less than D, the global
// send windows of distinct phases are disjoint (the package tests assert
// this invariant), so the arrival round determines the phase uniquely —
// the attribution an agent could equally make locally from arrival order,
// which is the order-invariance the paper's Remarks 2.1/2.10 set up.
package async

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
)

// phase is one dilated phase: the synchronous phase of length len that
// every agent executes when its local clock is in [localStart,
// localStart+len).
type phase struct {
	ref        core.PhaseRef
	localStart int
	len        int
	// subset is the Stage II majority-subset size (0 for Stage I phases).
	subset int
}

// Mode selects the synchronization setting.
type Mode int

const (
	// ModeKnownOffsets is §3.1: clocks offset by known bound D.
	ModeKnownOffsets Mode = iota + 1
	// ModeSelfSync is §3.2: unbounded offsets, activation-phase reset.
	ModeSelfSync
)

// Protocol runs the breathe broadcast without a global clock. It
// implements sim.Protocol.
type Protocol struct {
	params core.Params
	target channel.Bit
	mode   Mode

	// D bounds the clock spread (given in ModeKnownOffsets; equal to the
	// activation-phase length L in ModeSelfSync).
	D int
	// preludeLen is L, the activation broadcast length (ModeSelfSync).
	preludeLen int

	phases []phase
	// sigma is the attribution shift: global send window of phase k is
	// [localStart_k + sigma, localStart_{k+1} + sigma).
	sigma int
	// totalRounds caps the execution.
	totalRounds int

	// Consensus-mode initialization (Corollary 2.18 + Theorem 3.1): the
	// first correctA agents start opinionated with target, the next
	// wrongA with its negation; zero values select broadcast mode.
	consensus bool
	correctA  int
	wrongA    int
	// startPhase is the Stage I phase the schedule begins at (i_A for
	// consensus, 0 for broadcast).
	startPhase int

	n int

	// drawKey addresses every random draw: clock offsets on
	// StreamOffsets, phase finalizations on StreamSchedule cells indexed
	// by phase position. Installed by the engine in Setup.
	drawKey rng.Key

	// base[a] is the agent's clock lead: local clock ℓ_a(g) = g + base[a].
	// ModeKnownOffsets: base = c0 ∈ [0, D). ModeSelfSync: base =
	// −(informedAt+2L), fixed when the agent is first informed.
	base    []int
	hasBase []bool

	activated  []bool
	levelPos   []int32 // schedule position of the activation phase; −1 = pre-activated
	hasOpinion []bool
	opinion    []channel.Bit
	// acc packs each agent's per-phase reception counters as
	// ones<<32 | total (the same single-word layout as core.Protocol), so
	// a delivery is one read-modify-write of one cache line.
	acc []uint64

	// Batched-kernel state (bulk.go): agents grouped by clock base into
	// offset classes, with per-class cached sender lists. sendersGen is
	// bumped whenever a phase finalization may change opinions, which
	// invalidates every class cache at once.
	classes    []offsetClass
	classIdx   map[int]int // base → index into classes
	sendersGen uint64
	bulkZeros  []int32 // scratch union buffers returned by BulkSenders
	bulkOnes   []int32

	// Telemetry.
	stageIIStats []core.StageIIPhaseStat
	preludeDone  int // agents informed during the prelude (ModeSelfSync)
}

// NewKnownOffsets returns the §3.1 protocol: clocks are initialized
// uniformly at random in [0, D) at Setup. D must be positive.
func NewKnownOffsets(params core.Params, target channel.Bit, D int) (*Protocol, error) {
	if D < 1 {
		return nil, fmt.Errorf("async: D = %d must be positive", D)
	}
	p := &Protocol{params: params, target: target, mode: ModeKnownOffsets, D: D}
	if err := p.buildPhases(); err != nil {
		return nil, err
	}
	p.sigma = -(D - 1) // earliest possible start of a phase relative to localStart
	last := p.phases[len(p.phases)-1]
	p.totalRounds = last.localStart + last.len // latest send round + 1 for base = 0
	return p, nil
}

// NewKnownOffsetsConsensus returns the §3.1 protocol solving noisy
// majority-consensus (Corollary 2.18 under Theorem 3.1): correctA agents
// start with target, wrongA with its negation, execution begins at Stage
// I phase i_A, and clocks are offset by up to D.
func NewKnownOffsetsConsensus(params core.Params, target channel.Bit, correctA, wrongA, D int) (*Protocol, error) {
	if D < 1 {
		return nil, fmt.Errorf("async: D = %d must be positive", D)
	}
	sizeA := correctA + wrongA
	if correctA < 0 || wrongA < 0 || sizeA == 0 {
		return nil, fmt.Errorf("async: invalid initial set sizes correct=%d wrong=%d", correctA, wrongA)
	}
	if sizeA > params.N {
		return nil, fmt.Errorf("async: initial set %d exceeds population %d", sizeA, params.N)
	}
	p := &Protocol{
		params: params, target: target, mode: ModeKnownOffsets, D: D,
		consensus: true, correctA: correctA, wrongA: wrongA,
		startPhase: params.StartPhaseForConsensus(sizeA),
	}
	if err := p.buildPhases(); err != nil {
		return nil, err
	}
	p.sigma = -(D - 1)
	last := p.phases[len(p.phases)-1]
	p.totalRounds = last.localStart + last.len
	return p, nil
}

// NewSelfSync returns the §3.2 protocol. preludeLen is L, the activation
// broadcast length; the paper uses 2·log n, and the clock spread bound
// becomes D = L.
func NewSelfSync(params core.Params, target channel.Bit, preludeLen int) (*Protocol, error) {
	if preludeLen < 1 {
		return nil, fmt.Errorf("async: prelude length %d must be positive", preludeLen)
	}
	p := &Protocol{
		params:     params,
		target:     target,
		mode:       ModeSelfSync,
		D:          preludeLen,
		preludeLen: preludeLen,
	}
	if err := p.buildPhases(); err != nil {
		return nil, err
	}
	// The source is informed at round 0 and resets at 2L, so the minimal
	// clock-zero point is 2L: phase k's send window starts at
	// localStart_k + 2L.
	p.sigma = 2 * preludeLen
	last := p.phases[len(p.phases)-1]
	// Slowest agents reset at most D after the source (w.h.p.).
	p.totalRounds = last.localStart + last.len + p.sigma + p.D
	return p, nil
}

func (p *Protocol) buildPhases() error {
	sched, err := core.NewSchedule(p.params, p.startPhase)
	if err != nil {
		return err
	}
	p.phases = make([]phase, sched.NumPhases())
	for k := 0; k < sched.NumPhases(); k++ {
		ref, start, l := sched.PhaseByPosition(k)
		ph := phase{ref: ref, localStart: start + k*p.D, len: l}
		if ref.Stage == core.StageII {
			if ref.Index == p.params.K+1 {
				ph.subset = p.params.GammaFinal
			} else {
				ph.subset = p.params.Gamma
			}
		}
		p.phases[k] = ph
	}
	return nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	switch {
	case p.mode == ModeSelfSync:
		return "breathe-async-selfsync"
	case p.consensus:
		return "breathe-async-consensus"
	default:
		return "breathe-async-offsets"
	}
}

// TotalRounds reports the scheduled execution length (the Theorem 3.1
// budget: synchronous length + O(D·#phases) + prelude).
func (p *Protocol) TotalRounds() int { return p.totalRounds }

// NumPhases reports the number of dilated phases.
func (p *Protocol) NumPhases() int { return len(p.phases) }

// StageIIStats returns per-phase Stage II telemetry (valid after a run).
func (p *Protocol) StageIIStats() []core.StageIIPhaseStat { return p.stageIIStats }

// InformedDuringPrelude reports how many agents the activation phase
// reached (ModeSelfSync).
func (p *Protocol) InformedDuringPrelude() int { return p.preludeDone }

// Setup implements sim.Protocol.
func (p *Protocol) Setup(n int, key rng.Key) {
	if n != p.params.N {
		panic(fmt.Sprintf("async: engine population %d != params.N %d", n, p.params.N))
	}
	p.n = n
	p.drawKey = key
	p.base = make([]int, n)
	p.hasBase = make([]bool, n)
	p.activated = make([]bool, n)
	p.levelPos = make([]int32, n)
	p.hasOpinion = make([]bool, n)
	p.opinion = make([]channel.Bit, n)
	p.acc = make([]uint64, n)

	if p.consensus {
		for a := 0; a < p.correctA+p.wrongA; a++ {
			p.activated[a] = true
			p.levelPos[a] = -1
			p.hasOpinion[a] = true
			if a < p.correctA {
				p.opinion[a] = p.target
			} else {
				p.opinion[a] = p.target.Flip()
			}
		}
	} else {
		// The source.
		p.activated[0] = true
		p.levelPos[0] = -1
		p.hasOpinion[0] = true
		p.opinion[0] = p.target
	}

	p.resetBulk()
	switch p.mode {
	case ModeKnownOffsets:
		cell := p.drawKey.Cell(rng.StreamOffsets, 0)
		for a := 0; a < n; a++ {
			p.base[a] = int(cell.Uint32n(uint64(a), uint32(p.D)))
			p.hasBase[a] = true
			p.classAdd(a)
		}
	case ModeSelfSync:
		// Only the source has a clock at the start: informed at round 0,
		// reset at 2L, so its local clock reads g − 2L.
		p.base[0] = -2 * p.preludeLen
		p.hasBase[0] = true
		p.preludeDone = 1
		p.classAdd(0)
	}
}

// localClock returns agent a's clock reading at global round g, with
// ok=false when the agent has no running clock yet (ModeSelfSync,
// uninformed).
func (p *Protocol) localClock(a, g int) (int, bool) {
	if !p.hasBase[a] {
		return 0, false
	}
	return g + p.base[a], true
}

// phaseOfLocal returns the index of the phase whose local execution
// window contains clock reading l, or −1 when l falls in a gap.
func (p *Protocol) phaseOfLocal(l int) int {
	lo, hi := 0, len(p.phases)-1
	if l < p.phases[0].localStart {
		return -1
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.phases[mid].localStart <= l {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if l < p.phases[lo].localStart+p.phases[lo].len {
		return lo
	}
	return -1
}

// phaseOfGlobal attributes a message arriving in global round g to a
// phase position, or −1 for the prelude / dead gaps. Send windows of
// distinct phases are globally disjoint (see package comment), so this is
// well-defined: phase k owns [localStart_k + sigma, localStart_{k+1} +
// sigma).
func (p *Protocol) phaseOfGlobal(g int) int {
	x := g - p.sigma
	if x < p.phases[0].localStart {
		return -1
	}
	lo, hi := 0, len(p.phases)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.phases[mid].localStart <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// inPrelude reports whether agent a is within its activation-broadcast
// window at global round g (ModeSelfSync only).
func (p *Protocol) inPrelude(a, g int) bool {
	if p.mode != ModeSelfSync || !p.hasBase[a] {
		return false
	}
	// base = −(informedAt + 2L)  ⇒  informedAt = −base − 2L.
	informedAt := -p.base[a] - 2*p.preludeLen
	return g >= informedAt && g < informedAt+p.preludeLen
}

// Send implements sim.Protocol.
func (p *Protocol) Send(a, g int) (channel.Bit, bool) {
	if p.inPrelude(a, g) {
		// Activation phase: broadcast an arbitrary message. The content
		// carries no information (symmetry), only the arrival.
		return channel.Zero, true
	}
	l, ok := p.localClock(a, g)
	if !ok || !p.hasOpinion[a] {
		return 0, false
	}
	k := p.phaseOfLocal(l)
	if k < 0 {
		return 0, false
	}
	ph := p.phases[k]
	if ph.ref.Stage == core.StageI && !(p.levelPos[a] < int32(k)) {
		return 0, false
	}
	return p.opinion[a], true
}

// accTotalMask extracts the received-messages counter from an acc word.
const accTotalMask = 1<<32 - 1

// firstContact starts (and schedules the reset of) agent a's clock on its
// first reception, and begins the agent's own activation broadcast
// (ModeSelfSync).
func (p *Protocol) firstContact(a, g int) {
	p.base[a] = -(g + 2*p.preludeLen)
	p.hasBase[a] = true
	p.preludeDone++
	p.classAdd(a)
}

// Receive implements sim.Protocol.
func (p *Protocol) Receive(a int, bit channel.Bit, g int) {
	if p.mode == ModeSelfSync && !p.hasBase[a] {
		p.firstContact(a, g)
		return
	}
	k := p.phaseOfGlobal(g)
	if k < 0 {
		return // prelude traffic or dead gap
	}
	p.receiveAt(a, bit, k)
}

// receiveAt applies one accepted delivery attributed to phase k.
func (p *Protocol) receiveAt(a int, bit channel.Bit, k int) {
	switch p.phases[k].ref.Stage {
	case core.StageI:
		if !p.activated[a] {
			p.activated[a] = true
			p.levelPos[a] = int32(k)
			p.acc[a] = uint64(bit)<<32 | 1
			return
		}
		if p.levelPos[a] == int32(k) && !p.hasOpinion[a] {
			p.acc[a] += uint64(bit)<<32 + 1
		}
	case core.StageII:
		p.acc[a] += uint64(bit)<<32 + 1
	}
}

// EndRound implements sim.Protocol: a phase is finalized at the end of
// the last global round of its send window, by which time every message
// of the phase has been delivered.
func (p *Protocol) EndRound(g int) {
	// The send window of phase k ends the round before phase k+1's
	// window begins; equivalently phase k finalizes at
	// localStart_{k+1} + sigma − 1 (or the very end for the last phase).
	k := p.phaseOfGlobal(g)
	if k < 0 {
		return
	}
	var windowEnd int
	if k+1 < len(p.phases) {
		windowEnd = p.phases[k+1].localStart + p.sigma - 1
	} else {
		windowEnd = p.totalRounds - 1
	}
	if g != windowEnd {
		return
	}
	ph := p.phases[k]
	if ph.ref.Stage == core.StageI {
		p.finalizeStageI(k)
	} else {
		p.finalizeStageII(k, g)
	}
}

func (p *Protocol) finalizeStageI(k int) {
	p.sendersGen++ // opinions change below: invalidate cached sender lists
	// Each phase position finalizes exactly once, so a StreamSchedule cell
	// indexed by k and addressed by agent id is collision-free.
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(k))
	for a := 0; a < p.n; a++ {
		if !p.activated[a] || p.hasOpinion[a] || p.levelPos[a] != int32(k) {
			continue
		}
		if cell.Uint64n(uint64(a), p.acc[a]&accTotalMask) < p.acc[a]>>32 {
			p.opinion[a] = channel.One
		} else {
			p.opinion[a] = channel.Zero
		}
		p.hasOpinion[a] = true
		p.acc[a] = 0
	}
	// Clear stale counters before Stage II begins.
	if k+1 < len(p.phases) && p.phases[k+1].ref.Stage == core.StageII {
		for a := 0; a < p.n; a++ {
			p.acc[a] = 0
		}
	}
}

func (p *Protocol) finalizeStageII(k, g int) {
	p.sendersGen++ // opinions change below: invalidate cached sender lists
	ph := p.phases[k]
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(k)) //breathe:stream-ok a phase position is Stage I or Stage II, never both: exactly one finalizer addresses cell k
	successful, correct := 0, 0
	for a := 0; a < p.n; a++ {
		if total := int(p.acc[a] & accTotalMask); total >= ph.subset {
			successful++
			var rr rng.RNG
			rr.Reseed(cell.Uint64(uint64(a)))
			onesSub := rr.Hypergeometric(total, int(p.acc[a]>>32), ph.subset)
			if 2*onesSub > ph.subset {
				p.opinion[a] = channel.One
			} else {
				p.opinion[a] = channel.Zero
			}
			p.hasOpinion[a] = true
		}
		p.acc[a] = 0
		if p.hasOpinion[a] && p.opinion[a] == p.target {
			correct++
		}
	}
	p.stageIIStats = append(p.stageIIStats, core.StageIIPhaseStat{
		Phase:      ph.ref.Index,
		StartRound: g - ph.len + 1,
		Rounds:     ph.len,
		Successful: successful,
		Correct:    correct,
		Population: p.n,
	})
}

// Done implements sim.Protocol.
func (p *Protocol) Done(g int) bool { return g >= p.totalRounds }

// Opinion implements sim.Protocol.
func (p *Protocol) Opinion(a int) (channel.Bit, bool) {
	if p.hasOpinion == nil || !p.hasOpinion[a] {
		return 0, false
	}
	return p.opinion[a], true
}
