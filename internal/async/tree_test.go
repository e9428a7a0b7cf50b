package async

import (
	"reflect"
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// TestFoldMatchesReceive is the exact gate for self-sync Stage II on the
// engine's tree: two copies of one self-sync protocol run in lockstep on
// a minimal Flip-model round loop (uniform recipients, self-messages
// allowed, accept-one per receiver, noise), and every round both take
// the same accepted (receiver, bit) list in ascending receiver order.
// Copy A always takes it as one Receive per message, the per-agent
// specification; copy B, whenever its Accumulators answer hands over an
// array, as the engine's tree does: one acc[a] += bit<<32 | 1 per
// reception, then EndRound's first-contact fold. After every round the
// two must hold identical protocol state.
//
// A few agents are cut off until a round of their own inside Stage II,
// so Stage II rounds carry first contacts at clockless receivers, phase
// finalization rounds among them; the crashed case adds agents that
// never get a clock at all.
func TestFoldMatchesReceive(t *testing.T) {
	const n = 2048
	for _, tc := range []struct {
		name  string
		crash float64
	}{{"crash-free", 0}, {"crashed-10%", 0.1}} {
		t.Run(tc.name, func(t *testing.T) {
			folded, declined, contacts := runFoldGate(t, n, tc.crash, 11)
			if folded == 0 || declined == 0 || contacts == 0 {
				t.Fatalf("gate saw %d accumulated and %d declined Stage II rounds and %d folded first contacts; want all > 0",
					folded, declined, contacts)
			}
		})
	}
}

// runFoldGate runs the lockstep comparison and returns how many rounds
// copy B accumulated, how many Stage II rounds it declined (too many
// clockless agents for the round's senders) and how many first contacts
// its folds made.
func runFoldGate(t *testing.T, n int, crash float64, seed uint64) (folded, declined, contacts int) {
	t.Helper()
	params := core.DefaultParams(n, 0.3)
	build := func() *Protocol {
		p, err := NewSelfSync(params, channel.One, DefaultPrelude(n))
		if err != nil {
			t.Fatal(err)
		}
		p.Setup(n, rng.NewKey(seed))
		return p
	}
	a, b := build(), build()

	var r rng.RNG
	r.Reseed(seed)
	stageII := 0
	for a.phaseOfGlobal(stageII) < 0 || a.phases[a.phaseOfGlobal(stageII)].ref.Stage != core.StageII {
		stageII++
	}
	crashed := make([]bool, n)
	release := make([]int, n) // first round in which the agent can receive
	for i := 1; i < n; i++ {
		crashed[i] = r.Float64() < crash
		if r.Float64() < 0.05 {
			release[i] = stageII + int(r.Uint64n(uint64(a.TotalRounds()-stageII)))
		}
	}
	flip := channel.FromEpsilon(0.3).FlipProb()
	count := make([]int, n)
	kept := make([]channel.Bit, n)
	var receivers []int32
	var bits []channel.Bit

	for g := 0; !a.Done(g); g++ {
		zeros, ones := a.BulkSenders(g)
		zb, ob := b.BulkSenders(g)
		if !slices.Equal(zeros, zb) || !slices.Equal(ones, ob) {
			t.Fatalf("round %d: the copies list different senders", g)
		}
		send := func(s int32, bit channel.Bit) {
			if crashed[s] {
				return
			}
			dst := int(r.Uint64n(uint64(n)))
			if crashed[dst] || g < release[dst] {
				return
			}
			count[dst]++
			if r.Uint64n(uint64(count[dst])) == 0 {
				kept[dst] = bit
			}
		}
		for _, s := range zeros {
			send(s, channel.Zero)
		}
		for _, s := range ones {
			send(s, channel.One)
		}
		receivers, bits = receivers[:0], bits[:0]
		for dst := range count {
			if count[dst] == 0 {
				continue
			}
			count[dst] = 0
			bit := kept[dst]
			if r.Float64() < flip {
				bit = bit.Flip()
			}
			receivers = append(receivers, int32(dst))
			bits = append(bits, bit)
		}

		for i, dst := range receivers {
			a.Receive(int(dst), bits[i], g)
		}
		before := b.preludeDone
		acc := b.Accumulators(g)
		accumulated := acc != nil
		for i, dst := range receivers {
			if accumulated {
				acc[dst] += uint64(bits[i])<<32 + 1
			} else {
				b.Receive(int(dst), bits[i], g)
			}
		}
		a.EndRound(g)
		b.EndRound(g)
		if accumulated {
			folded++
			contacts += b.preludeDone - before
		} else if k := a.phaseOfGlobal(g); k >= 0 && a.phases[k].ref.Stage == core.StageII {
			declined++
		}
		if diff := foldStateDiff(a, b); diff != "" {
			t.Fatalf("round %d (accumulated %v): %s differs between Receive and the accumulator fold", g, accumulated, diff)
		}
	}
	return folded, declined, contacts
}

// foldStateDiff names the first piece of protocol state on which the two
// copies differ, or returns "".
func foldStateDiff(a, b *Protocol) string {
	switch {
	case !slices.Equal(a.base, b.base):
		return "base"
	case !slices.Equal(a.hasBase, b.hasBase):
		return "hasBase"
	case !slices.Equal(a.acc, b.acc):
		return "acc"
	case a.preludeDone != b.preludeDone:
		return "preludeDone"
	case !slices.Equal(a.activated, b.activated):
		return "activated"
	case !slices.Equal(a.levelPos, b.levelPos):
		return "levelPos"
	case !slices.Equal(a.hasOpinion, b.hasOpinion):
		return "hasOpinion"
	case !slices.Equal(a.opinion, b.opinion):
		return "opinion"
	case !reflect.DeepEqual(a.stageIIStats, b.stageIIStats):
		return "stageIIStats"
	case !reflect.DeepEqual(a.classIdx, b.classIdx):
		return "class index"
	case len(a.classes) != len(b.classes):
		return "class count"
	}
	for ci := range a.classes {
		ca, cb := &a.classes[ci], &b.classes[ci]
		if ca.base != cb.base || !slices.Equal(ca.members, cb.members) {
			return "class members"
		}
	}
	return ""
}

// TestSelfSyncShardedIdentity runs self-sync at n = 2¹⁵, the engine's
// shardMinN, so its full Stage II rounds run on the sharded tree: the
// workers add into acc concurrently and EndRound's first-contact fold
// runs after their barrier. One worker and three must give the same
// result and the same opinion at every agent, with 10% of the agents
// down.
func TestSelfSyncShardedIdentity(t *testing.T) {
	const n = 1 << 15
	params := core.DefaultParams(n, 0.3)
	run := func(shards int) (sim.Result, []byte) {
		p, err := NewSelfSync(params, channel.One, DefaultPrelude(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 5, AllowSelfMessages: true, Shards: shards,
			Failures: sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(5), 0),
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]byte, n)
		for a := range ops {
			if bit, ok := p.Opinion(a); ok {
				ops[a] = byte(bit)
			} else {
				ops[a] = 2
			}
		}
		return res, ops
	}
	serial, serialOps := run(1)
	if serial.Paths.Sharded == 0 {
		t.Fatalf("no sharded tree rounds: %+v", serial.Paths)
	}
	if parallel, parallelOps := run(3); parallel != serial || !slices.Equal(parallelOps, serialOps) {
		t.Fatalf("three workers diverged from one:\n%+v\n%+v", parallel, serial)
	}
}

// TestFoldPrecedesFinalization: a first contact the engine accumulated in
// the last round of a Stage II phase's send window is folded before the
// phase finalizes, which would otherwise clear its acc word first and
// lose the contact. Engine runs rarely accumulate such a round (the
// window ends in a dilation gap), so the round is armed by hand.
func TestFoldPrecedesFinalization(t *testing.T) {
	const n, a = 256, 5
	p, err := NewSelfSync(core.DefaultParams(n, 0.3), channel.One, DefaultPrelude(n))
	if err != nil {
		t.Fatal(err)
	}
	p.Setup(n, rng.NewKey(1))
	k := 0
	for p.phases[k].ref.Stage != core.StageII {
		k++
	}
	g := p.phases[k+1].localStart + p.sigma - 1 // phase k finalizes at the end of round g
	p.foldRound = g
	p.acc[a] = 1<<32 | 1
	p.EndRound(g)
	if !p.hasBase[a] || p.base[a] != -(g+2*p.preludeLen) || p.acc[a] != 0 || p.hasOpinion[a] {
		t.Fatalf("agent %d after round %d: hasBase %v base %d acc %#x hasOpinion %v; want a clock started at round %d, acc 0, no opinion",
			a, g, p.hasBase[a], p.base[a], p.acc[a], p.hasOpinion[a], g)
	}
	if len(p.stageIIStats) != 1 {
		t.Fatalf("round %d finalized %d Stage II phases, want 1", g, len(p.stageIIStats))
	}
}
