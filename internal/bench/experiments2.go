package bench

import (
	"fmt"
	"math"

	"breathe/internal/async"
	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/stats"
	"breathe/internal/trace"
)

// --- E7: majority-consensus threshold (Corollary 2.18) ---

func e7() *Experiment {
	return &Experiment{
		ID:          "E7",
		Title:       "Majority-consensus success vs |A| and majority-bias",
		PaperRef:    "Corollary 2.18",
		Expectation: "success w.h.p. once |A| = Ω(log n/ε²) and bias = Ω(√(log n/|A|)); failures below the threshold",
		Run: func(o Options) (*Report, error) {
			n := 8192
			if o.Quick {
				n = 2048
			}
			eps := 0.3
			params := core.DefaultParams(n, eps)
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E7: consensus success (n = %d, ε = %.2f, %d seeds per cell)", n, eps, o.seeds()),
				"|A|", "majority-bias", "threshold √(log n/|A|)", "success rate")
			sizes := pick(o, []int{params.BetaS, 4 * params.BetaS},
				[]int{params.BetaS, 4 * params.BetaS, 16 * params.BetaS})
			biases := pick(o, []float64{0.1, 0.35}, []float64{0.02, 0.05, 0.1, 0.2, 0.35})
			aboveOK := true
			var aboveDetail string
			for _, sizeA := range sizes {
				if sizeA > n {
					continue
				}
				thr := math.Sqrt(math.Log2(float64(n)) / float64(sizeA))
				for _, bias := range biases {
					correct := int(float64(sizeA) * (0.5 + bias))
					wrong := sizeA - correct
					succ := 0
					for seed := 0; seed < o.seeds(); seed++ {
						p, err := core.NewConsensus(params, channel.One, correct, wrong)
						if err != nil {
							return nil, err
						}
						res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, p)
						if err != nil {
							return nil, err
						}
						if res.AllCorrect(channel.One) {
							succ++
						}
					}
					rate := float64(succ) / float64(o.seeds())
					tb.AddRowValues(sizeA, bias, thr, rate)
					if bias >= 2*thr && rate < 0.67 {
						aboveOK = false
						aboveDetail = fmt.Sprintf("|A|=%d bias=%.2f rate=%.2f", sizeA, bias, rate)
					}
					o.logf("E7: |A|=%d bias=%.2f -> %d/%d", sizeA, bias, succ, o.seeds())
				}
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("success above the bias threshold", aboveOK,
				func() string {
					if aboveDetail == "" {
						return "all cells with bias ≥ 2·√(log n/|A|) succeed"
					}
					return aboveDetail
				}())
			return r, nil
		},
	}
}

// --- E8: why the naive strategies fail (§1.6) ---

func e8() *Experiment {
	return &Experiment{
		ID:          "E8",
		Title:       "Baseline protocols under noise",
		PaperRef:    "Section 1.6 (and §1.2 related work)",
		Expectation: "immediate forwarding decays to near-coin-flip; silent waiting needs Ω(√n) rounds; the noisy voter model forgets its majority; breathe wins",
		Run: func(o Options) (*Report, error) {
			eps := 0.25
			ns := pick(o, []int{1024}, []int{1024, 4096})
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E8: final bias toward B by protocol (ε = %.2f, %d seeds)", eps, o.seeds()),
				"n", "breathe", "immediate-forward", "noisy-voter (from 0.9)", "two-choice (from 0.9)")
			var breatheBias, ifBias stats.Running
			for _, n := range ns {
				o.logf("E8: n = %d", n)
				var bb, fb, vb, tb2 stats.Running
				for seed := 0; seed < o.seeds(); seed++ {
					bp, err := core.NewBroadcast(core.DefaultParams(n, eps), channel.One)
					if err != nil {
						return nil, err
					}
					bres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, bp)
					if err != nil {
						return nil, err
					}
					bb.Add(bres.Bias(channel.One))

					fp := &baseline.ImmediateForward{Target: channel.One, Rounds: bres.Rounds}
					fres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, fp)
					if err != nil {
						return nil, err
					}
					fb.Add(fres.Bias(channel.One))

					vp := &baseline.NoisyVoter{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: bres.Rounds}
					vres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, vp)
					if err != nil {
						return nil, err
					}
					vb.Add(vres.Bias(channel.One))

					tp := &baseline.TwoChoiceMajority{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: bres.Rounds}
					tres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, tp)
					if err != nil {
						return nil, err
					}
					tb2.Add(tres.Bias(channel.One))
				}
				tb.AddRowValues(n, bb.Mean(), fb.Mean(), vb.Mean(), tb2.Mean())
				breatheBias.Add(bb.Mean())
				ifBias.Add(fb.Mean())
			}
			r.Tables = append(r.Tables, tb)

			// Silent waiting: rounds until any agent hears twice.
			sw, err := silentWaitFit(pick(o, []int{256, 1024, 4096}, []int{256, 1024, 4096, 16384}), silentWaitSeeds, 0, eps)
			if err != nil {
				return nil, err
			}
			r.Tables = append(r.Tables, sw.table)

			r.addCheck("breathe reaches (near-)unanimity", breatheBias.Mean() > 0.45,
				fmt.Sprintf("mean final bias %.3f", breatheBias.Mean()))
			r.addCheck("immediate forwarding decays far below ε", ifBias.Mean() < eps/2,
				fmt.Sprintf("mean final bias %.4f vs per-hop ε %.2f", ifBias.Mean(), eps))
			r.addCheck("silent-wait rounds ≈ √n", sw.expo > 0.3 && sw.expo < 0.8 && sw.r2 > 0.7,
				fmt.Sprintf("fitted exponent %.2f (R²=%.3f) over %d sizes × %d seeds, target 0.5",
					sw.expo, sw.r2, len(sw.ns), silentWaitSeeds))
			return r, nil
		},
	}
}

// silentWaitSeeds is E8b's replication count per population size. The
// first double reception T is a birthday time: T²/2n is close to Exp(1),
// so ln T has standard deviation ≈ 0.64 whatever n, and over three sizes
// a factor 4 apart the fitted exponent's standard error is ≈ 0.33/√seeds
// — 0.05 at 40 seeds, a sixth of the check's ±0.2 window.
const silentWaitSeeds = 40

// silentWaitResult is E8b's measurement: the geometric-mean rounds to a
// second reception per population size and the power-law fit over them.
type silentWaitResult struct {
	ns, geoMeans []float64
	expo, r2     float64
	table        *trace.Table
}

// silentWaitFit runs the §1.6 silent-wait strawman seeds times at every
// n (seeds base, base+1, …) and fits rounds ∝ n^expo through the
// geometric mean of each size's rounds — the mean of ln T, whose noise
// is the same at every n and shrinks as 1/√seeds, unlike a median of a
// handful of runs.
func silentWaitFit(ns []int, seeds int, base uint64, eps float64) (*silentWaitResult, error) {
	res := &silentWaitResult{
		table: trace.NewTable("E8b: silent-wait rounds to second reception (birthday bound)",
			"n", "geo-mean rounds", "median rounds", "√n"),
	}
	for _, n := range ns {
		rounds := make([]float64, 0, seeds)
		var logSum float64
		for i := 0; i < seeds; i++ {
			sw := &baseline.SilentWait{Target: channel.One, Needed: 2, Rounds: 1 << 20}
			if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: base + uint64(i)}, sw); err != nil {
				return nil, err
			}
			rounds = append(rounds, float64(sw.FirstDoneRound))
			logSum += math.Log(float64(sw.FirstDoneRound))
		}
		g := math.Exp(logSum / float64(seeds))
		res.table.AddRowValues(n, g, median(rounds), math.Sqrt(float64(n)))
		res.ns = append(res.ns, float64(n))
		res.geoMeans = append(res.geoMeans, g)
	}
	res.expo, _, res.r2 = stats.FitPowerLaw(res.ns, res.geoMeans)
	return res, nil
}

// --- E9: asynchronous overhead (Theorem 3.1) ---

func e9() *Experiment {
	return &Experiment{
		ID:          "E9",
		Title:       "Removing the global clock",
		PaperRef:    "Theorem 3.1",
		Expectation: "additive O(log² n) rounds (D = 2·log n per phase), unchanged message complexity, success preserved",
		Run: func(o Options) (*Report, error) {
			eps := 0.3
			ns := pick(o, []int{512, 2048}, []int{1024, 4096, 16384})
			r := &Report{}
			tb := trace.NewTable(fmt.Sprintf("E9: sync vs async cost (ε = %.2f)", eps),
				"n", "sync rounds", "async rounds", "overhead", "2·log2(n)²·phases-norm", "msg ratio", "async success")
			okAll := true
			var overheads, logsq []float64
			for _, n := range ns {
				o.logf("E9: n = %d", n)
				params := core.DefaultParams(n, eps)
				D := 2 * int(math.Ceil(math.Log2(float64(n))))
				var msgSync, msgAsync stats.Running
				succ := 0
				var asyncRounds, syncRounds int
				for seed := 0; seed < o.seeds(); seed++ {
					sp, err := core.NewBroadcast(params, channel.One)
					if err != nil {
						return nil, err
					}
					sres, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, sp)
					if err != nil {
						return nil, err
					}
					ap, err := async.NewKnownOffsets(params, channel.One, D)
					if err != nil {
						return nil, err
					}
					ares, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, ap)
					if err != nil {
						return nil, err
					}
					syncRounds, asyncRounds = sres.Rounds, ares.Rounds
					msgSync.Add(float64(sres.MessagesSent))
					msgAsync.Add(float64(ares.MessagesSent))
					if ares.AllCorrect(channel.One) {
						succ++
					}
				}
				overhead := asyncRounds - syncRounds
				l2 := math.Ceil(math.Log2(float64(n)))
				norm := float64(overhead) / (2 * l2 * l2)
				ratio := msgAsync.Mean() / msgSync.Mean()
				tb.AddRowValues(n, syncRounds, asyncRounds, overhead, norm, ratio,
					fmt.Sprintf("%d/%d", succ, o.seeds()))
				if succ < o.seeds()-1 {
					okAll = false
				}
				overheads = append(overheads, float64(overhead))
				logsq = append(logsq, l2*l2)
				if math.Abs(ratio-1) > 0.25 {
					r.addCheck(fmt.Sprintf("message ratio ≈ 1 at n=%d", n), false,
						fmt.Sprintf("ratio %.2f", ratio))
				}
			}
			r.Tables = append(r.Tables, tb)
			f := stats.FitLinear(logsq, overheads)
			r.addCheck("overhead grows like log² n", f.Slope > 0 && f.R2 > 0.8,
				fmt.Sprintf("overhead vs log²n slope %.2f (R²=%.3f)", f.Slope, f.R2))
			r.addCheck("async broadcast succeeds w.h.p.", okAll, "all population sizes")
			return r, nil
		},
	}
}

// --- E10: optimality vs the direct-source yardstick (§1.4) ---

func e10() *Experiment {
	return &Experiment{
		ID:          "E10",
		Title:       "Lower-bound yardstick: direct source sampling",
		PaperRef:    "Section 1.4 (Shannon bound)",
		Expectation: "Θ(log n/ε²) samples per agent are needed even with direct access; the protocol's rounds stay within a constant factor of that yardstick",
		Run: func(o Options) (*Report, error) {
			r := &Report{}
			tb := trace.NewTable("E10: protocol rounds vs the direct-source optimum",
				"n", "eps", "direct m* (exact)", "closed-form floor", "protocol rounds", "ratio")
			cases := pick(o,
				[]struct {
					n   int
					eps float64
				}{{1024, 0.3}, {1024, 0.2}},
				[]struct {
					n   int
					eps float64
				}{{1024, 0.3}, {4096, 0.3}, {16384, 0.3}, {4096, 0.2}, {4096, 0.45}})
			var ratios []float64
			for _, c := range cases {
				mStar := baseline.DirectSourceRoundsNeeded(c.n, c.eps, 0.01)
				floor := baseline.DirectSourceLowerBound(c.n, c.eps, 0.01)
				rounds := core.DefaultParams(c.n, c.eps).TotalRounds()
				ratio := float64(rounds) / float64(mStar)
				tb.AddRowValues(c.n, c.eps, mStar, floor, rounds, ratio)
				ratios = append(ratios, ratio)
			}
			r.Tables = append(r.Tables, tb)
			lo, hi := ratios[0], ratios[0]
			for _, x := range ratios {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			r.addCheck("protocol within a constant factor of the yardstick", hi < 60 && hi/lo < 6,
				fmt.Sprintf("ratios in [%.1f, %.1f]", lo, hi))

			// Validate the yardstick itself by simulation.
			rg := rng.New(8)
			n, eps := 4096, 0.3
			m := baseline.DirectSourceRoundsNeeded(n, eps, 0.05)
			frac := baseline.SimulateDirectSource(n, m, eps, rg)
			fracHalf := baseline.SimulateDirectSource(n, m/4, eps, rg)
			r.addCheck("m* samples suffice, m*/4 do not", frac > 0.999 && fracHalf < 0.999,
				fmt.Sprintf("all-correct fraction %.4f at m*, %.4f at m*/4", frac, fracHalf))
			return r, nil
		},
	}
}

// --- E11: per-agent memory (§1.5) ---

func e11() *Experiment {
	return &Experiment{
		ID:          "E11",
		Title:       "Per-agent memory footprint",
		PaperRef:    "Section 1.5",
		Expectation: "protocol state fits in O(log log n + log(1/ε)) bits",
		Run: func(o Options) (*Report, error) {
			r := &Report{}
			tb := trace.NewTable("E11: agent state bits", "n", "eps", "bits", "log2(log2 n) + 2·log2(1/eps)")
			var xs, bits []float64
			for _, n := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
				for _, eps := range []float64{0.3, 0.1} {
					b := core.DefaultParams(n, eps).MemoryBits()
					ref := math.Log2(math.Log2(float64(n))) + 2*math.Log2(1/eps)
					tb.AddRowValues(n, eps, b, ref)
					if eps == 0.3 {
						xs = append(xs, math.Log2(math.Log2(float64(n))))
						bits = append(bits, float64(b))
					}
				}
			}
			r.Tables = append(r.Tables, tb)
			growth := bits[len(bits)-1] - bits[0]
			r.addCheck("bits grow only additively over 2^10 → 2^22", growth <= 16,
				fmt.Sprintf("growth %.0f bits across 12 doublings of n", growth))
			return r, nil
		},
	}
}

// --- E12: flip probabilities below the maximum (§1.3.2) ---

func e12() *Experiment {
	return &Experiment{
		ID:       "E12",
		Title:    "Robustness to noise below the maximum",
		PaperRef: "Section 1.3.2 (flip probability *at most* 1/2−ε)",
		Expectation: "any flip probability ≤ 1/2−ε preserves correctness; the worst case is the maximum. " +
			"A per-message flip probability drawn uniformly from [lo, hi] is in law a BSC at (lo+hi)/2, " +
			"so 3pmax/4 and pmax/2 stand for the heterogeneous ranges [pmax/2, pmax] and [0, pmax]",
		Run: func(o Options) (*Report, error) {
			n := 4096
			if o.Quick {
				n = 1024
			}
			eps := 0.25
			pmax := 0.5 - eps
			r := &Report{}
			tb := trace.NewTable(fmt.Sprintf("E12: channels (n = %d, ε = %.2f, %d seeds)", n, eps, o.seeds()),
				"channel", "success rate", "mean final bias")
			allOK := true
			for _, p := range []float64{pmax, 3 * pmax / 4, pmax / 2, pmax / 4, 0} {
				ch := channel.NewBSC(p)
				succ := 0
				var bias stats.Running
				for seed := 0; seed < o.seeds(); seed++ {
					proto, err := core.NewBroadcast(core.DefaultParams(n, eps), channel.One)
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(sim.Config{N: n, Channel: ch, Seed: uint64(seed)}, proto)
					if err != nil {
						return nil, err
					}
					if res.AllCorrect(channel.One) {
						succ++
					}
					bias.Add(res.Bias(channel.One))
				}
				rate := float64(succ) / float64(o.seeds())
				tb.AddRowValues(ch.Name(), rate, bias.Mean())
				if rate < 0.67 {
					allOK = false
				}
				o.logf("E12: %s -> %.2f", ch.Name(), rate)
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("success under every admissible channel", allOK, "all channels ≤ 1/2−ε")
			return r, nil
		},
	}
}
