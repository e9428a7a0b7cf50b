package core

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// Kernel-equivalence suite: for the paper's two protocols the batched
// kernel must agree with per-agent collection (simtest.PerAgent) — both
// replay the same addressed draws, so the statistics below coincide
// exactly — and each must be a pure function of (config, seed).

type kernelStats struct {
	successes int
	rounds    []int
	messages  []float64
	accepted  []float64
}

func runKernelSweep(t *testing.T, perAgent bool, self bool, consensus bool, n, seeds int) kernelStats {
	t.Helper()
	params := DefaultParams(n, 0.3)
	var st kernelStats
	for seed := 0; seed < seeds; seed++ {
		var p *Protocol
		var err error
		if consensus {
			sizeA := 4 * params.BetaS
			p, err = NewConsensus(params, channel.One, sizeA*3/4, sizeA-sizeA*3/4)
		} else {
			p, err = NewBroadcast(params, channel.One)
		}
		if err != nil {
			t.Fatal(err)
		}
		var run sim.Protocol = p
		if perAgent {
			run = simtest.PerAgent(p)
		}
		res, err := sim.Run(sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: uint64(seed),
			AllowSelfMessages: self,
		}, run)
		if err != nil {
			t.Fatal(err)
		}
		if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
			t.Fatalf("seed %d: message conservation violated: %+v", seed, res)
		}
		if res.Paths.PerAgent != 0 {
			t.Fatalf("seed %d: fell back to per-agent collection: %+v", seed, res.Paths)
		}
		if res.AllCorrect(channel.One) {
			st.successes++
		}
		st.rounds = append(st.rounds, res.Rounds)
		st.messages = append(st.messages, float64(res.MessagesSent))
		st.accepted = append(st.accepted, float64(res.MessagesAccepted))
	}
	return st
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func checkKernelEquivalence(t *testing.T, name string, ref, got kernelStats, seeds int) {
	t.Helper()
	// Rounds are schedule-determined, identical run for run.
	for i := range ref.rounds {
		if ref.rounds[i] != got.rounds[i] {
			t.Errorf("%s seed %d: rounds %d (batched) != %d (per-agent)", name, i, got.rounds[i], ref.rounds[i])
		}
	}
	// Success w.h.p. on both paths: allow one stray failure per path.
	if ref.successes < seeds-1 || got.successes < seeds-1 {
		t.Errorf("%s: successes per-agent %d/%d, batched %d/%d", name, ref.successes, seeds, got.successes, seeds)
	}
	// Message totals agree in distribution; means within 2%.
	if d := math.Abs(mean(got.messages)-mean(ref.messages)) / mean(ref.messages); d > 0.02 {
		t.Errorf("%s: message means deviate by %.3f: batched %v vs per-agent %v",
			name, d, mean(got.messages), mean(ref.messages))
	}
	if d := math.Abs(mean(got.accepted)-mean(ref.accepted)) / mean(ref.accepted); d > 0.02 {
		t.Errorf("%s: accepted means deviate by %.3f", name, d)
	}
}

func TestBroadcastKernelEquivalence(t *testing.T) {
	const n, seeds = 1024, 10
	ref := runKernelSweep(t, true, false, false, n, seeds)
	got := runKernelSweep(t, false, false, false, n, seeds)
	checkKernelEquivalence(t, "broadcast", ref, got, seeds)
}

func TestBroadcastDenseKernelEquivalence(t *testing.T) {
	// AllowSelfMessages engages the dense aggregate kernel in Stage II.
	const n, seeds = 1024, 10
	ref := runKernelSweep(t, true, true, false, n, seeds)
	got := runKernelSweep(t, false, true, false, n, seeds)
	checkKernelEquivalence(t, "broadcast/self", ref, got, seeds)
}

func TestConsensusKernelEquivalence(t *testing.T) {
	const n, seeds = 1024, 10
	ref := runKernelSweep(t, true, false, true, n, seeds)
	got := runKernelSweep(t, false, false, true, n, seeds)
	checkKernelEquivalence(t, "consensus", ref, got, seeds)

	refSelf := runKernelSweep(t, true, true, true, n, seeds)
	gotSelf := runKernelSweep(t, false, true, true, n, seeds)
	checkKernelEquivalence(t, "consensus/self", refSelf, gotSelf, seeds)
}

func TestKernelsArePureFunctionsOfSeed(t *testing.T) {
	// Determinism on every path: identical (config, seed) ⇒ identical
	// Result, for bulk and per-agent collection, with and without
	// self-messages.
	const n = 512
	params := DefaultParams(n, 0.3)
	for _, perAgent := range []bool{true, false} {
		for _, self := range []bool{false, true} {
			run := func(seed uint64) sim.Result {
				var p sim.Protocol
				p, err := NewBroadcast(params, channel.One)
				if err != nil {
					t.Fatal(err)
				}
				if perAgent {
					p = simtest.PerAgent(p)
				}
				res, err := sim.Run(sim.Config{
					N: n, Channel: channel.FromEpsilon(0.3), Seed: seed,
					AllowSelfMessages: self,
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(7), run(7)
			if a != b {
				t.Fatalf("per-agent=%v self=%v: same seed diverged:\n%+v\n%+v", perAgent, self, a, b)
			}
			c := run(8)
			if a.MessagesSent == c.MessagesSent && a.MessagesAccepted == c.MessagesAccepted {
				t.Fatalf("per-agent=%v self=%v: different seeds produced identical runs", perAgent, self)
			}
		}
	}
}

func TestBulkSendersMatchSendRule(t *testing.T) {
	// Invariant: the cached sender lists must agree with the per-agent
	// Send rule in every round. Checked live via an Observer during a
	// batched run.
	const n = 512
	p, err := NewBroadcast(DefaultParams(n, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	cfg := sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 5,
		Observer: func(round int, e *sim.Engine) {
			if round%50 != 0 {
				return
			}
			zeros, ones := p.BulkSenders(round)
			inList := make(map[int32]channel.Bit, len(zeros)+len(ones))
			for _, a := range zeros {
				inList[a] = channel.Zero
			}
			for _, a := range ones {
				inList[a] = channel.One
			}
			for a := 0; a < n; a++ {
				bit, sends := p.Send(a, round)
				lb, listed := inList[int32(a)]
				if sends != listed {
					panic("sender list disagrees with Send rule")
				}
				if sends && bit != lb {
					panic("sender bit disagrees with Send rule")
				}
			}
			checked++
		},
	}
	if _, err := sim.Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("observer never ran")
	}
}

// TestNoBreatheVariantRunsInBulk: the NoBreathe ablation activates
// senders mid-phase, and its sender index follows them, so the engine
// collects it in bulk like every protocol — byte-identical with the Send
// scan of simtest.PerAgent. Without self-messages it speaks only in
// scatter rounds; with them its Stage II runs on the tree.
func TestNoBreatheVariantRunsInBulk(t *testing.T) {
	const n = 256
	for _, self := range []bool{false, true} {
		var res [2]sim.Result
		for i, perAgent := range []bool{false, true} {
			p, err := NewBroadcastVariant(DefaultParams(n, 0.3), channel.One, Variant{NoBreathe: true})
			if err != nil {
				t.Fatal(err)
			}
			var run sim.Protocol = p
			if perAgent {
				run = simtest.PerAgent(p)
			}
			res[i], err = sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 1, AllowSelfMessages: self}, run)
			if err != nil {
				t.Fatal(err)
			}
		}
		if res[0] != res[1] {
			t.Fatalf("self=%v: bulk and per-agent collection diverged:\n%+v\n%+v", self, res[0], res[1])
		}
		paths := res[0].Paths
		if tree := paths.Dense + paths.Sharded + paths.Sparse; paths.PerMessage == 0 || (tree > 0) != self {
			t.Fatalf("self=%v: NoBreathe run paths %v over %d rounds", self, paths, res[0].Rounds)
		}
	}
}
