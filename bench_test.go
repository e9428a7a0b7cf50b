package breathe

import (
	"fmt"
	"testing"
	"time"

	"breathe/internal/bench"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// One testing.B benchmark per experiment in the reproduction index
// (README.md, "Reproducing the paper's claims"). Each iteration regenerates the experiment's table at
// quick scale and asserts its shape checks; custom metrics expose the
// headline numbers. Run the full-scale variants with
// `go run ./cmd/experiments -run all`.

func benchExperiment(b *testing.B, id string) {
	e := bench.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.Options{Quick: true, Seeds: 3})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			for _, c := range rep.Checks {
				if !c.Pass {
					b.Fatalf("%s shape check failed: %s — %s", id, c.Name, c.Detail)
				}
			}
		}
		checks := 0
		for range rep.Checks {
			checks++
		}
		b.ReportMetric(float64(checks), "shape-checks")
	}
}

// BenchmarkE1RoundsVsN regenerates E1 (Theorem 2.17): rounds ∝ log n and
// messages ∝ n·log n/ε² at fixed ε.
func BenchmarkE1RoundsVsN(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2RoundsVsEps regenerates E2 (Theorem 2.17): rounds ∝ 1/ε².
func BenchmarkE2RoundsVsEps(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3LayerGrowth regenerates E3 (Claims 2.2/2.4): Stage I layer
// population envelopes.
func BenchmarkE3LayerGrowth(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4BiasDecay regenerates E4 (Claim 2.8): per-layer bias decay
// ε_i ≥ ε^{i+1}/2.
func BenchmarkE4BiasDecay(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5MajorityBoost regenerates E5 (Lemma 2.11): the majority
// boost bound across δ regimes.
func BenchmarkE5MajorityBoost(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6StageIIAmplify regenerates E6 (Lemma 2.14): per-phase bias
// amplification.
func BenchmarkE6StageIIAmplify(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Consensus regenerates E7 (Corollary 2.18): consensus success
// vs |A| and majority-bias.
func BenchmarkE7Consensus(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Baselines regenerates E8 (§1.6): baseline failure modes.
func BenchmarkE8Baselines(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Async regenerates E9 (Theorem 3.1): the O(log² n) overhead
// of removing the global clock.
func BenchmarkE9Async(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10LowerBound regenerates E10 (§1.4): the direct-source
// yardstick.
func BenchmarkE10LowerBound(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Memory regenerates E11 (§1.5): per-agent memory bits.
func BenchmarkE11Memory(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12NoiseBelowMax regenerates E12 (§1.3.2): robustness to
// flip probabilities below 1/2 − ε.
func BenchmarkE12NoiseBelowMax(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13NoBreatheAblation regenerates E13 (§1.6): removing the
// breathing rule produces wrong consensus with non-negligible
// probability.
func BenchmarkE13NoBreatheAblation(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14ChoiceRules regenerates E14 (Remarks 2.1/2.10): the
// alternative message/subset choice rules are equivalent.
func BenchmarkE14ChoiceRules(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15PopulationProtocol regenerates E15 (§1.2): the AAE
// three-state protocol is not robust under communication noise.
func BenchmarkE15PopulationProtocol(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16TwoParty regenerates E16 (§1.4): the two-party Shannon
// baseline Θ(1/ε²).
func BenchmarkE16TwoParty(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Calibration regenerates E17: the reliability frontier of
// the calibrated constants.
func BenchmarkE17Calibration(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Faults regenerates E18: crash-fault and message-loss
// robustness.
func BenchmarkE18Faults(b *testing.B) { benchExperiment(b, "E18") }

// --- kernel benchmarks ---

// kernelBroadcast runs one full broadcast under the classical push
// convention (self-messages allowed), under which tree rounds apply, and
// returns the Result plus the per-agent-round cost in nanoseconds.
func kernelBroadcast(b *testing.B, n int, seed uint64) (sim.Result, float64) {
	b.Helper()
	p, err := core.NewBroadcast(core.DefaultParams(n, 0.3), channel.One)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: seed,
		AllowSelfMessages: true,
	}
	start := time.Now()
	res, err := sim.Run(cfg, p)
	if err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	return res, float64(elapsed.Nanoseconds()) / (float64(n) * float64(res.Rounds))
}

// BenchmarkKernelAutoBroadcast1M runs the flagship scenario: a full
// noisy broadcast over one million agents on the batched kernel.
func BenchmarkKernelAutoBroadcast1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, nsPerAR := kernelBroadcast(b, 1_000_000, uint64(i))
		if !res.AllCorrect(channel.One) {
			b.Fatal("broadcast failed")
		}
		b.ReportMetric(nsPerAR, "ns/agent-round")
	}
}

// BenchmarkKernelAutoConsensus1M: the same scale for the paper's second
// problem.
func BenchmarkKernelAutoConsensus1M(b *testing.B) {
	const n = 1_000_000
	params := core.DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	for i := 0; i < b.N; i++ {
		p, err := core.NewConsensus(params, channel.One, sizeA*3/4, sizeA-sizeA*3/4)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := sim.Run(sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: uint64(i),
			AllowSelfMessages: true,
		}, p)
		if err != nil {
			b.Fatal(err)
		}
		if res.CorrectFraction(channel.One) < 0.99 {
			b.Fatal("consensus failed")
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/(float64(n)*float64(res.Rounds)), "ns/agent-round")
	}
}

// --- micro-benchmarks of the simulator and protocol hot paths ---

// BenchmarkBroadcastEndToEnd measures one full broadcast at several
// population sizes, reporting simulated message throughput.
func BenchmarkBroadcastEndToEnd(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := Broadcast(Config{N: n, Epsilon: 0.3, Seed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "msgs/run")
		})
	}
}

// BenchmarkEngineRound measures the raw engine cost of one all-senders
// round (delivery, collision resolution, noise).
func BenchmarkEngineRound(b *testing.B) {
	const n = 4096
	p := &floodProtocol{}
	cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 1, MaxRounds: 1 << 30}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p.rounds = b.N
	b.ReportAllocs()
	b.ResetTimer()
	res := e.Run(p)
	b.StopTimer()
	if res.Rounds != b.N {
		b.Fatalf("ran %d rounds, want %d", res.Rounds, b.N)
	}
	b.ReportMetric(float64(res.MessagesSent)/float64(b.N), "msgs/round")
}

// BenchmarkConsensusEndToEnd measures a consensus run.
func BenchmarkConsensusEndToEnd(b *testing.B) {
	const n = 4096
	params := core.DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := MajorityConsensus(Config{N: n, Epsilon: 0.3, Seed: uint64(i)}, sizeA*3/4, sizeA/4)
		if err != nil {
			b.Fatal(err)
		}
		if res.CorrectFraction < 0.5 {
			b.Fatal("consensus lost the majority")
		}
	}
}

// floodProtocol: every agent sends bit 1 every round; pure engine load.
type floodProtocol struct {
	rounds int
	all    []int32
}

func (f *floodProtocol) Name() string { return "flood" }
func (f *floodProtocol) Setup(n int, _ rng.Key) {
	f.all = f.all[:0]
	for a := range n {
		f.all = append(f.all, int32(a))
	}
}
func (f *floodProtocol) BulkSenders(int) ([]int32, []int32)      { return nil, f.all }
func (f *floodProtocol) BulkDeliver([]int32, []channel.Bit, int) {}
func (f *floodProtocol) BulkAccumulate(int) bool                 { return false }
func (f *floodProtocol) BulkAccumulators() []uint64              { return nil }
func (f *floodProtocol) Send(a, r int) (channel.Bit, bool)       { return channel.One, true }
func (f *floodProtocol) Receive(int, channel.Bit, int)           {}
func (f *floodProtocol) EndRound(int)                            {}
func (f *floodProtocol) Done(round int) bool                     { return round >= f.rounds }
func (f *floodProtocol) Opinion(int) (channel.Bit, bool)         { return 0, false }
