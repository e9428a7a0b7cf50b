// Package baseline implements the comparator protocols the paper argues
// against or uses as witnesses:
//
//   - ImmediateForward — the §1.6 strawman that relays a message the
//     moment it is first heard; reliability decays like (2ε)^depth and
//     the population converges to a near-coin-flip opinion.
//   - SilentWait — the §1.6 strawman in which informed agents stay
//     silent; the first double reception needs Ω(√n) rounds (birthday
//     paradox).
//   - NoisyVoter — the physics-literature voter dynamic (§1.2): adopt
//     every received opinion immediately; under noise it mixes toward
//     a fifty-fifty split instead of consensus.
//   - TwoChoiceMajority — the Doerr et al. SPAA'11 rule (§1.2): update to
//     the majority of own opinion and two sampled opinions; effective
//     without noise, degraded by it.
//   - DirectSource — the §1.4 lower-bound witness: every agent privately
//     samples the source through the BSC; Θ(log n/ε²) samples per agent
//     are necessary and sufficient, which calibrates the optimality claim
//     for the main protocol.
package baseline

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// ImmediateForward is the "speak immediately" strawman. Agent 0 is the
// source and pushes its opinion every round; every other agent adopts the
// first bit it hears and starts pushing it from the next round, for a
// total of Rounds rounds.
type ImmediateForward struct {
	// Target is the correct opinion held by the source.
	Target channel.Bit
	// Rounds is the execution length.
	Rounds int

	n          int
	opinion    []channel.Bit
	hasOpinion []bool
	heardAt    []int
	// The informed agents by opinion, in the order they were informed:
	// Receive appends an agent when it first hears.
	scatterLists
}

// Name implements sim.Protocol.
func (p *ImmediateForward) Name() string { return "immediate-forward" }

// Setup implements sim.Protocol.
func (p *ImmediateForward) Setup(n int, _ rng.Key) {
	p.n = n
	p.opinion = make([]channel.Bit, n)
	p.hasOpinion = make([]bool, n)
	p.heardAt = make([]int, n)
	p.opinion[0] = p.Target
	p.hasOpinion[0] = true
	p.heardAt[0] = -1
	p.sourceOnly(p.Target)
}

// Send implements sim.Protocol: every informed agent pushes every round
// (the source from round 0, others from the round after they first
// heard).
func (p *ImmediateForward) Send(a, round int) (channel.Bit, bool) {
	if !p.hasOpinion[a] {
		return 0, false
	}
	if a != 0 && round <= p.heardAt[a] {
		return 0, false
	}
	return p.opinion[a], true
}

// Receive implements sim.Protocol: the first message heard becomes the
// opinion; later messages are ignored (the strawman never revises).
func (p *ImmediateForward) Receive(a int, bit channel.Bit, round int) {
	if p.hasOpinion[a] {
		return
	}
	p.opinion[a] = bit
	p.hasOpinion[a] = true
	p.heardAt[a] = round
	p.scatterLists[bit] = append(p.scatterLists[bit], int32(a))
}

// EndRound implements sim.Protocol.
func (p *ImmediateForward) EndRound(int) {}

// Done implements sim.Protocol.
func (p *ImmediateForward) Done(round int) bool { return round >= p.Rounds }

// Opinion implements sim.Protocol.
func (p *ImmediateForward) Opinion(a int) (channel.Bit, bool) {
	return p.opinion[a], p.hasOpinion[a]
}

// SilentWait is the "never speak" strawman: only the source transmits,
// everyone else waits to accumulate Needed messages. Done as soon as some
// agent has heard Needed messages (or Rounds elapse). Its round count
// exhibits the §1.6 birthday-paradox bound: Ω(√n) for Needed = 2.
type SilentWait struct {
	// Target is the source's opinion.
	Target channel.Bit
	// Needed is how many messages an agent waits for (§1.6 discusses 2).
	Needed int
	// Rounds caps the execution.
	Rounds int

	n        int
	received []int
	// FirstDoneRound records when some agent first reached Needed
	// receptions; -1 while none has.
	FirstDoneRound int
	done           bool
	scatterLists   // the source alone
}

// Name implements sim.Protocol.
func (p *SilentWait) Name() string { return "silent-wait" }

// Setup implements sim.Protocol.
func (p *SilentWait) Setup(n int, _ rng.Key) {
	if p.Needed < 1 {
		panic(fmt.Sprintf("baseline: SilentWait.Needed = %d", p.Needed))
	}
	p.n = n
	p.received = make([]int, n)
	p.FirstDoneRound = -1
	p.done = false
	p.sourceOnly(p.Target)
}

// Send implements sim.Protocol: only the source speaks.
func (p *SilentWait) Send(a, round int) (channel.Bit, bool) {
	return p.Target, a == 0
}

// Receive implements sim.Protocol.
func (p *SilentWait) Receive(a int, _ channel.Bit, round int) {
	p.received[a]++
	if p.received[a] >= p.Needed && p.FirstDoneRound < 0 {
		p.FirstDoneRound = round
		p.done = true
	}
}

// EndRound implements sim.Protocol.
func (p *SilentWait) EndRound(int) {}

// Done implements sim.Protocol.
func (p *SilentWait) Done(round int) bool { return p.done || round >= p.Rounds }

// Opinion implements sim.Protocol: the waiting agents never commit, so
// only the source has an opinion. The interesting output is
// FirstDoneRound.
func (p *SilentWait) Opinion(a int) (channel.Bit, bool) {
	return p.Target, a == 0
}

// NoisyVoter is the voter-model dynamic: every opinionated agent pushes
// its opinion each round and adopts every bit it accepts, immediately.
// InitialCorrect agents start with the target opinion and the remaining
// n − InitialCorrect with the complement, mirroring a majority-consensus
// instance with A = all agents.
type NoisyVoter struct {
	// Target labels the correct opinion for measurement.
	Target channel.Bit
	// InitialCorrect is the number of agents starting with Target.
	InitialCorrect int
	// Rounds is the execution length.
	Rounds int

	n       int
	opinion []channel.Bit
	correct int
	// Trajectory records the number of correct agents at the end of each
	// round (for convergence plots).
	Trajectory []int
	scatterLists
}

// Name implements sim.Protocol.
func (p *NoisyVoter) Name() string { return "noisy-voter" }

// Setup implements sim.Protocol.
func (p *NoisyVoter) Setup(n int, _ rng.Key) {
	if p.InitialCorrect < 0 || p.InitialCorrect > n {
		panic(fmt.Sprintf("baseline: NoisyVoter.InitialCorrect = %d with n = %d", p.InitialCorrect, n))
	}
	p.n = n
	p.opinion = make([]channel.Bit, n)
	for a := 0; a < n; a++ {
		if a < p.InitialCorrect {
			p.opinion[a] = p.Target
		} else {
			p.opinion[a] = p.Target.Flip()
		}
	}
	p.correct = p.InitialCorrect
	p.Trajectory = nil
}

// Send implements sim.Protocol.
func (p *NoisyVoter) Send(a, _ int) (channel.Bit, bool) { return p.opinion[a], true }

// Receive implements sim.Protocol: adopt immediately.
func (p *NoisyVoter) Receive(a int, bit channel.Bit, _ int) {
	if p.opinion[a] != bit {
		if bit == p.Target {
			p.correct++
		} else {
			p.correct--
		}
		p.opinion[a] = bit
	}
}

// BulkSenders implements sim.Protocol: every agent sends its opinion.
func (p *NoisyVoter) BulkSenders(round int) (zeros, ones []int32) {
	p.byOpinion(p.opinion)
	return p.scatterLists.BulkSenders(round)
}

// EndRound implements sim.Protocol.
func (p *NoisyVoter) EndRound(int) {
	p.Trajectory = append(p.Trajectory, p.correct)
}

// Done implements sim.Protocol.
func (p *NoisyVoter) Done(round int) bool { return round >= p.Rounds }

// Opinion implements sim.Protocol.
func (p *NoisyVoter) Opinion(a int) (channel.Bit, bool) { return p.opinion[a], true }

// TwoChoiceMajority is the Doerr et al. rule adapted to the push model:
// each agent pushes its opinion every round; once it has accepted two
// samples it updates to the majority of {own opinion, sample₁, sample₂}
// and clears its buffer. InitialCorrect seeds the opinions as in
// NoisyVoter.
type TwoChoiceMajority struct {
	// Target labels the correct opinion for measurement.
	Target channel.Bit
	// InitialCorrect is the number of agents starting with Target.
	InitialCorrect int
	// Rounds is the execution length.
	Rounds int

	n       int
	opinion []channel.Bit
	pending []channel.Bit // first buffered sample, if pendingSet
	pendSet []bool
	correct int
	// Trajectory records correct counts per round.
	Trajectory []int
	scatterLists
}

// Name implements sim.Protocol.
func (p *TwoChoiceMajority) Name() string { return "two-choice-majority" }

// Setup implements sim.Protocol.
func (p *TwoChoiceMajority) Setup(n int, _ rng.Key) {
	if p.InitialCorrect < 0 || p.InitialCorrect > n {
		panic(fmt.Sprintf("baseline: TwoChoiceMajority.InitialCorrect = %d with n = %d", p.InitialCorrect, n))
	}
	p.n = n
	p.opinion = make([]channel.Bit, n)
	p.pending = make([]channel.Bit, n)
	p.pendSet = make([]bool, n)
	for a := 0; a < n; a++ {
		if a < p.InitialCorrect {
			p.opinion[a] = p.Target
		} else {
			p.opinion[a] = p.Target.Flip()
		}
	}
	p.correct = p.InitialCorrect
	p.Trajectory = nil
}

// Send implements sim.Protocol.
func (p *TwoChoiceMajority) Send(a, _ int) (channel.Bit, bool) { return p.opinion[a], true }

// Receive implements sim.Protocol.
func (p *TwoChoiceMajority) Receive(a int, bit channel.Bit, _ int) {
	if !p.pendSet[a] {
		p.pending[a] = bit
		p.pendSet[a] = true
		return
	}
	// Majority of own + two samples.
	votes := int(p.opinion[a]) + int(p.pending[a]) + int(bit)
	var next channel.Bit
	if votes >= 2 {
		next = channel.One
	}
	p.pendSet[a] = false
	if next != p.opinion[a] {
		if next == p.Target {
			p.correct++
		} else {
			p.correct--
		}
		p.opinion[a] = next
	}
}

// BulkSenders implements sim.Protocol: every agent sends its opinion.
func (p *TwoChoiceMajority) BulkSenders(round int) (zeros, ones []int32) {
	p.byOpinion(p.opinion)
	return p.scatterLists.BulkSenders(round)
}

// EndRound implements sim.Protocol.
func (p *TwoChoiceMajority) EndRound(int) {
	p.Trajectory = append(p.Trajectory, p.correct)
}

// Done implements sim.Protocol.
func (p *TwoChoiceMajority) Done(round int) bool { return round >= p.Rounds }

// Opinion implements sim.Protocol.
func (p *TwoChoiceMajority) Opinion(a int) (channel.Bit, bool) { return p.opinion[a], true }

// scatterLists holds a baseline's bulk sender lists, indexed by the bit
// sent, and answers the engine's accumulator question for it: every
// baseline's reception has per-message side effects, so its rounds run on
// the scatter regime and every accepted message is one Receive.
type scatterLists [2][]int32

// BulkSenders implements sim.Protocol.
func (s *scatterLists) BulkSenders(int) (zeros, ones []int32) { return s[0], s[1] }

// Accumulators implements sim.Protocol: reception is never pure counting,
// so there are none.
func (*scatterLists) Accumulators(int) []uint64 { return nil }

// sourceOnly re-arms the lists with agent 0 alone, sending bit.
func (s *scatterLists) sourceOnly(bit channel.Bit) {
	*s = scatterLists{}
	s[bit] = []int32{0}
}

// byOpinion rebuilds the lists with every agent, sending its opinion.
func (s *scatterLists) byOpinion(opinion []channel.Bit) {
	s[0], s[1] = s[0][:0], s[1][:0]
	for a, bit := range opinion {
		s[bit] = append(s[bit], int32(a))
	}
}
