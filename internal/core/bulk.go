package core

// The engine's bulk interface: BulkSenders and Accumulators. The
// protocol's sender set is a pure function of (level, hasOpinion,
// opinion), all of which change only at phase boundaries — "breathe
// before speaking" means an agent contacted during a phase stays silent
// until a later phase, and opinions update in EndRound of a phase's last
// round. The sender lists are therefore maintained incrementally by the
// phase-finalization loops (see endStageIPhase / endStageIIPhase): Stage
// I's eligible set after a boundary is every opinionated agent (an
// agent's activation level never exceeds the finished phase), Stage II's
// is the same, so one index serves both. BulkSenders is an O(1) lookup
// with no population scan anywhere on the query path, and the engine
// reads its lists' total length to pick the sparse regime.
//
// The one exception is the NoBreathe ablation, whose agents start
// forwarding in the round after their activation — a mid-phase sender
// change. Receive adds such an agent to the index as it takes its
// opinion, and ensurePhase sorts the index before the next round reads
// it, so the lists stay ascending.

// BulkSenders implements sim.Protocol: the agents transmitting in
// round, grouped by the bit they send (their current opinion). Served
// from the maintained index; both lists are ascending by agent id.
func (p *Protocol) BulkSenders(round int) (zeros, ones []int32) {
	p.ensurePhase(round)
	if !p.curOK {
		return nil, nil
	}
	return p.idxZeros, p.idxOnes
}

// Accumulators implements sim.Protocol. Reception is pure counting,
// acc[a] += bit<<32 | 1, in every phase (see Receive), so the engine may
// add any round's receptions straight into acc; only the ablations' own
// rounds (see ablated) deliver through Receive. In sharded rounds the
// engine's workers add into disjoint contiguous ranges of acc
// concurrently (each agent belongs to exactly one shard) and the engine
// imposes a barrier before EndRound, so the protocol reads the merged
// counters without synchronization of its own.
func (p *Protocol) Accumulators(round int) []uint64 {
	p.ensurePhase(round)
	if !p.curOK || p.ablated() {
		return nil
	}
	return p.acc
}
