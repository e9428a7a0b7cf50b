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

// TestFoldMatchesReceive is the exact gate for self-sync on the engine's
// tree: two copies of one self-sync protocol run in lockstep on a minimal
// Flip-model round loop (uniform recipients, self-messages allowed,
// accept-one per receiver, noise), and every round both take the same
// accepted (receiver, bit) list in ascending receiver order. Copy A
// always takes it as one Receive per message, the per-agent
// specification; copy B, whenever its Accumulators answer hands over an
// array, as the engine's tree does: one acc[a] += bit<<32 | 1 per
// reception, then EndRound's first-contact fold. After every round the
// two must hold identical protocol state.
//
// A few agents are cut off until a round of their own inside Stage II,
// so Stage I and Stage II rounds carry first contacts at clockless
// receivers, phase finalization rounds among them; the crashed case adds
// agents that never get a clock at all, which outnumber Stage I's senders
// and so keep its Stage I rounds on Receive.
func TestFoldMatchesReceive(t *testing.T) {
	const n = 2048
	for _, tc := range []struct {
		name   string
		crash  float64
		stageI bool // Stage I rounds accumulate
	}{{"crash-free", 0, true}, {"crashed-10%", 0.1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			c := runFoldGate(t, asyncBuilders(n)["selfsync"], n, tc.crash, 11)
			if (c.foldedI > 0) != tc.stageI || c.foldedII == 0 || c.declined == 0 || c.contacts == 0 {
				t.Fatalf("gate saw %d accumulated Stage I and %d Stage II rounds, %d declined rounds after the prelude and %d folded first contacts; want Stage I rounds %v and the rest > 0",
					c.foldedI, c.foldedII, c.declined, c.contacts, tc.stageI)
			}
		})
	}
}

// TestCountingMatchesFirstContactRule is the exact gate for Stage I's one
// reception rule, counting, against the rule it replaced, which
// firstContactRule keeps: both run in lockstep (inside runFoldGate) on
// the same accepted (receiver, bit) lists over whole schedules, and must
// agree on every clock, opinion and sender list after every round, and
// on every activation phase and counter after every phase finalization.
func TestCountingMatchesFirstContactRule(t *testing.T) {
	const n = 2048
	builders := asyncBuilders(n)
	for _, name := range []string{"offsets", "consensus", "selfsync"} {
		t.Run(name, func(t *testing.T) {
			c := runFoldGate(t, builders[name], n, 0, 12)
			if c.foldedI == 0 || c.finalizedI == 0 {
				t.Fatalf("gate saw %d accumulated Stage I rounds and %d Stage I finalizations; want both > 0",
					c.foldedI, c.finalizedI)
			}
		})
	}
}

// firstContactRule is a protocol run under the Stage I reception rule
// that counting replaced: an agent is activated by its first Stage I
// reception, collects only while its activation phase is the current one
// and it holds no opinion, and opinionated agents ignore Stage I
// receptions. Every other round runs the wrapped protocol's own code.
type firstContactRule struct {
	*Protocol
	activated []bool
}

func (r *firstContactRule) Receive(a int, bit channel.Bit, g int) {
	p := r.Protocol
	if p.mode == ModeSelfSync && !p.hasBase[a] {
		p.firstContact(a, g)
		return
	}
	k := p.phaseOfGlobal(g)
	if k < 0 || p.phases[k].ref.Stage != core.StageI {
		p.Receive(a, bit, g)
		return
	}
	if !r.activated[a] {
		r.activated[a] = true
		p.levelPos[a] = int32(k)
		p.acc[a] = uint64(bit)<<32 | 1
		return
	}
	if p.levelPos[a] == int32(k) && !p.hasOpinion[a] {
		p.acc[a] += uint64(bit)<<32 + 1
	}
}

func (r *firstContactRule) EndRound(g int) {
	p := r.Protocol
	k := p.phaseOfGlobal(g)
	windowEnd := p.totalRounds - 1
	if k >= 0 && k+1 < len(p.phases) {
		windowEnd = p.phases[k+1].localStart + p.sigma - 1
	}
	if k < 0 || p.phases[k].ref.Stage != core.StageI || g != windowEnd {
		p.EndRound(g)
		return
	}
	p.sendersGen++
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(k)) //breathe:stream-ok the reference finalization stands in for the protocol's own: a run takes one or the other, and the gate compares the two on the same draws
	for a := 0; a < p.n; a++ {
		if !r.activated[a] || p.hasOpinion[a] || p.levelPos[a] != int32(k) {
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
	if k+1 < len(p.phases) && p.phases[k+1].ref.Stage == core.StageII {
		clear(p.acc)
	}
}

// foldGateCounts is what runFoldGate saw copy B do.
type foldGateCounts struct {
	foldedI, foldedII int // rounds accumulated, by attribution stage
	declined          int // rounds after the prelude delivered through Receive
	contacts          int // first contacts made by folds
	finalizedI        int // Stage I phase finalizations
}

// runFoldGate runs three copies of one protocol in lockstep on the same
// accepted lists: A takes every message as one Receive, B takes the
// engine's route (the accumulator array and EndRound's fold whenever
// Accumulators offers it), and O runs firstContactRule on Receive. A and
// B must hold identical state after every round; O and B after every
// round up to the Stage I bookkeeping the two rules keep differently
// mid-phase (levelPos and acc), and exactly after every finalization.
func runFoldGate(t *testing.T, build func() (*Protocol, error), n int, crash float64, seed uint64) (c foldGateCounts) {
	t.Helper()
	setup := func() *Protocol {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p.Setup(n, rng.NewKey(seed))
		return p
	}
	a, b := setup(), setup()
	o := &firstContactRule{Protocol: setup()}
	o.activated = slices.Clone(o.hasOpinion) // the source or the initial set

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
		zo, oo := o.BulkSenders(g)
		if !slices.Equal(zeros, zb) || !slices.Equal(ones, ob) || !slices.Equal(zeros, zo) || !slices.Equal(ones, oo) {
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
			o.Receive(int(dst), bits[i], g)
		}
		before, gen := b.preludeDone, b.sendersGen
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
		o.EndRound(g)
		k := a.phaseOfGlobal(g)
		switch {
		case accumulated && a.phases[k].ref.Stage == core.StageI:
			c.foldedI++
		case accumulated:
			c.foldedII++
		case k >= 0:
			c.declined++
		}
		if accumulated {
			c.contacts += b.preludeDone - before
		}
		finalized := b.sendersGen != gen
		if finalized && a.phases[k].ref.Stage == core.StageI {
			c.finalizedI++
		}
		if diff := foldStateDiff(a, b, true); diff != "" {
			t.Fatalf("round %d (accumulated %v): %s differs between Receive and the accumulator fold", g, accumulated, diff)
		}
		if diff := foldStateDiff(o.Protocol, b, finalized); diff != "" {
			t.Fatalf("round %d (finalized %v): %s differs between the first-contact rule and counting", g, finalized, diff)
		}
	}
	return c
}

// foldStateDiff names the first piece of protocol state on which the two
// copies differ, or returns "". levelPos and acc are compared only when
// counters is set.
func foldStateDiff(a, b *Protocol, counters bool) string {
	switch {
	case !slices.Equal(a.base, b.base):
		return "base"
	case !slices.Equal(a.hasBase, b.hasBase):
		return "hasBase"
	case counters && !slices.Equal(a.acc, b.acc):
		return "acc"
	case a.preludeDone != b.preludeDone:
		return "preludeDone"
	case counters && !slices.Equal(a.levelPos, b.levelPos):
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
