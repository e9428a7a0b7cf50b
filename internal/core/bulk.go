package core

import "breathe/internal/channel"

// The engine's bulk interface (the Bulk methods of sim.Protocol). The
// protocol's sender set is a pure function of (activated, level,
// hasOpinion, opinion), all of which change only at phase boundaries — "breathe before speaking" means an agent contacted
// during a phase stays silent until a later phase, and opinions update
// in EndRound of a phase's last round. The sender lists are therefore
// maintained incrementally by the phase-finalization loops (see
// endStageIPhase / endStageIIPhase): Stage I's eligible set after a
// boundary is every opinionated agent (an agent's activation level never
// exceeds the finished phase), Stage II's is the same, so one index
// serves both. BulkSenders is an O(1) lookup with no population scan
// anywhere on the query path, and the engine reads its lists' total
// length to pick the sparse regime.
//
// The one exception is the NoBreathe ablation, whose agents start
// forwarding in the round after their activation — a mid-phase sender
// change. receiveOne adds such an agent to the index as it takes its
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

// BulkDeliver implements sim.Protocol: one receiveOne per accepted
// delivery, with the phase lookup hoisted out of the loop.
func (p *Protocol) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	p.ensurePhase(round)
	if !p.curOK {
		return
	}
	for i, a := range receivers {
		p.receiveOne(int(a), bits[i])
	}
}

// BulkAccumulate implements sim.Protocol. In Stage II (except the
// PrefixSubset ablation, which caps the ones counter mid-phase) reception
// is pure counting: acc[a] += bit<<32 | 1, exactly what the engine's dense
// kernel performs on the BulkAccumulators array.
func (p *Protocol) BulkAccumulate(round int) bool {
	p.ensurePhase(round)
	return p.curOK && p.curRef.Stage == StageII && !p.variant.PrefixSubset
}

// BulkAccumulators implements sim.Protocol. In sharded rounds the
// engine's workers add into disjoint contiguous ranges of acc
// concurrently (each agent belongs to exactly one shard) and the engine
// imposes a barrier before EndRound, so the protocol reads the merged
// counters without synchronization of its own.
func (p *Protocol) BulkAccumulators() []uint64 { return p.acc }
