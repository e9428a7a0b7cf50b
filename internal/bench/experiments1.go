package bench

import (
	"fmt"
	"math"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/stats"
	"breathe/internal/trace"
)

// --- E1: rounds and messages vs n (Theorem 2.17) ---

func e1() *Experiment {
	return &Experiment{
		ID:          "E1",
		Title:       "Rounds and messages vs population size",
		PaperRef:    "Theorem 2.17",
		Expectation: "rounds ∝ log n, messages ∝ n·log n, success w.h.p., at fixed ε",
		Run: func(o Options) (*Report, error) {
			eps := 0.3
			ns := pick(o, []int{512, 1024, 2048}, []int{1024, 2048, 4096, 8192, 16384})
			r := &Report{}
			tb := trace.NewTable("E1: broadcast cost vs n (ε = 0.3)",
				"n", "rounds", "rounds/log2(n)", "messages", "msgs/(n·log2 n/ε²)", "success")
			var xs, rounds, msgsNorm []float64
			for _, n := range ns {
				o.logf("E1: n = %d", n)
				run, err := tallyRuns(request(n, eps), o.seeds())
				if err != nil {
					return nil, err
				}
				l2 := math.Log2(float64(n))
				norm := run.messages.Mean() / (float64(n) * l2 / (eps * eps))
				tb.AddRowValues(n, run.rounds, float64(run.rounds)/l2,
					run.messages.Mean(), norm,
					fmt.Sprintf("%d/%d", run.unanimous, run.runs()))
				xs = append(xs, float64(n))
				rounds = append(rounds, float64(run.rounds))
				msgsNorm = append(msgsNorm, norm)
				if run.rate() < 0.99 && !o.Quick {
					r.addCheck(fmt.Sprintf("success w.h.p. at n=%d", n), run.rate() >= 0.8,
						fmt.Sprintf("rate %.2f", run.rate()))
				}
			}
			r.Tables = append(r.Tables, tb)
			// Shape: rounds against log n is close to linear — the
			// power-law exponent of rounds vs n must be far below 1.
			expo, _, r2 := stats.FitPowerLaw(xs, rounds)
			r.addCheck("rounds grow sublinearly (log-like) in n", expo < 0.5 && r2 > 0.5,
				fmt.Sprintf("power-law exponent %.3f (R²=%.3f), logarithmic target ≈ 0.1", expo, r2))
			// Normalized message volume stays within a constant band.
			lo, hi := msgsNorm[0], msgsNorm[0]
			for _, v := range msgsNorm {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			r.addCheck("messages ∝ n·log n/ε² up to constants", hi/lo < 3,
				fmt.Sprintf("normalized volume in [%.3g, %.3g]", lo, hi))
			return r, nil
		},
	}
}

// --- E2: rounds vs ε (Theorem 2.17) ---

func e2() *Experiment {
	return &Experiment{
		ID:          "E2",
		Title:       "Rounds vs channel parameter ε",
		PaperRef:    "Theorem 2.17",
		Expectation: "rounds ∝ 1/ε² at fixed n",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 512
			}
			epss := pick(o, []float64{0.45, 0.3, 0.2}, []float64{0.45, 0.35, 0.25, 0.175, 0.125})
			r := &Report{}
			tb := trace.NewTable(fmt.Sprintf("E2: broadcast cost vs ε (n = %d)", n),
				"eps", "rounds", "rounds·ε²", "success")
			var invEps, rounds []float64
			for _, eps := range epss {
				o.logf("E2: eps = %v", eps)
				run, err := tallyRuns(request(n, eps), o.seeds())
				if err != nil {
					return nil, err
				}
				tb.AddRowValues(eps, run.rounds, float64(run.rounds)*eps*eps,
					fmt.Sprintf("%d/%d", run.unanimous, run.runs()))
				invEps = append(invEps, 1/eps)
				rounds = append(rounds, float64(run.rounds))
			}
			r.Tables = append(r.Tables, tb)
			expo, _, r2 := stats.FitPowerLaw(invEps, rounds)
			r.addCheck("rounds ∝ (1/ε)^2", expo > 1.4 && expo < 2.6 && r2 > 0.9,
				fmt.Sprintf("fitted exponent %.2f (R²=%.3f), target 2", expo, r2))
			return r, nil
		},
	}
}

// layeredConstants shrinks Stage I phases so several intermediate layers
// fit even at simulation-friendly n, so E3 and E4 have layers to measure.
func layeredConstants() core.Constants {
	c := core.DefaultConstants
	c.S = 0.5
	c.B = 0.5
	return c
}

// --- E3: Stage I layer growth (Claims 2.2, 2.4; Cor. 2.5/2.6) ---

func e3() *Experiment {
	return &Experiment{
		ID:          "E3",
		Title:       "Stage I layer growth envelopes",
		PaperRef:    "Claims 2.2 and 2.4, Corollaries 2.5–2.6",
		Expectation: "X₀ ∈ [βs/3, βs]; (β+1)ⁱX₀/16 ≤ Xᵢ ≤ (β+1)ⁱX₀; all agents activated",
		Run: func(o Options) (*Report, error) {
			n := 32768
			if o.Quick {
				n = 8192
			}
			eps := 0.3
			params := core.NewParams(n, eps, layeredConstants())
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E3: layer growth (n = %d, ε = %.2f, β = %d, T = %d), averaged over %d seeds",
					n, eps, params.Beta, params.T, o.seeds()),
				"phase", "Y_i (new)", "X_i (cum)", "lower (β+1)^i·X0/16", "upper (β+1)^i·X0")
			type acc struct{ y, x stats.Running }
			accs := make([]acc, params.T+2)
			var x0s []float64
			allActivated := true
			err := replicate(request(n, eps), o.seeds(), broadcastOf(params, core.Variant{}), func(r replica[*core.Protocol]) {
				tel := r.proto.Telemetry()
				for i, st := range tel.StageI {
					accs[i].y.Add(float64(st.NewlyActivated))
					accs[i].x.Add(float64(st.Activated))
				}
				x0s = append(x0s, float64(tel.StageI[0].Activated))
				if r.res.Undecided > 0 {
					allActivated = false
				}
			})
			if err != nil {
				return nil, err
			}
			x0 := median(x0s)
			envelopeOK := true
			for i := range accs {
				lower, upper := math.NaN(), math.NaN()
				if i <= params.T {
					pow := math.Pow(float64(params.Beta)+1, float64(i))
					lower, upper = pow*x0/16, pow*x0
					xi := accs[i].x.Mean()
					if i >= 1 && (xi < lower || xi > upper) {
						envelopeOK = false
					}
				}
				tb.AddRowValues(i, accs[i].y.Mean(), accs[i].x.Mean(), lower, upper)
			}
			r.Tables = append(r.Tables, tb)
			betaS := float64(params.BetaS)
			r.addCheck("X0 ∈ [βs/3, βs]", x0 >= betaS/3 && x0 <= betaS,
				fmt.Sprintf("X0 = %.0f, βs = %.0f", x0, betaS))
			r.addCheck("X_i within Claim 2.4 envelope", envelopeOK, "all intermediate phases")
			r.addCheck("all agents activated after Stage I", allActivated, "Corollary 2.6")
			return r, nil
		},
	}
}

// --- E4: Stage I bias decay (Claim 2.8) ---

func e4() *Experiment {
	return &Experiment{
		ID:          "E4",
		Title:       "Stage I per-layer bias decay",
		PaperRef:    "Claim 2.8",
		Expectation: "phase-i bias ε_i ≥ ε^{i+1}/2: geometric decay, never collapse to 0",
		Run: func(o Options) (*Report, error) {
			n := 32768
			if o.Quick {
				n = 8192
			}
			eps := 0.3
			params := core.NewParams(n, eps, layeredConstants())
			seeds := o.seeds() * 3 // bias estimates are noisy
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E4: layer bias (n = %d, ε = %.2f), averaged over %d seeds", n, eps, seeds),
				"phase", "mean ε_i", "bound ε^{i+1}/2", "mean Y_i")
			biases := make([]stats.Running, params.T+2)
			ys := make([]stats.Running, params.T+2)
			req := request(n, eps)
			req.Seed = 1000
			err := replicate(req, seeds, broadcastOf(params, core.Variant{}), func(r replica[*core.Protocol]) {
				for i, st := range r.proto.Telemetry().StageI {
					biases[i].Add(st.Bias())
					ys[i].Add(float64(st.NewlyActivated))
				}
			})
			if err != nil {
				return nil, err
			}
			ok := true
			for i := range biases {
				bound := math.Pow(eps, float64(i+1)) / 2
				got := biases[i].Mean()
				// The bound is w.h.p. per phase; on averages allow 50%
				// slack for Monte-Carlo error.
				if got < bound/2 {
					ok = false
				}
				tb.AddRowValues(i, got, bound, ys[i].Mean())
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("ε_i ≥ ε^{i+1}/2 (with MC slack)", ok, "all phases")
			r.addCheck("phase-0 bias ≥ ε/2", biases[0].Mean() >= eps/2*0.75,
				fmt.Sprintf("ε₀ = %.3f vs ε/2 = %.3f (Claim 2.2)", biases[0].Mean(), eps/2))
			return r, nil
		},
	}
}

// --- E5: majority boost lemma (Lemma 2.11) ---

func e5() *Experiment {
	return &Experiment{
		ID:          "E5",
		Title:       "Majority-of-noisy-samples boost",
		PaperRef:    "Lemma 2.11",
		Expectation: "Pr(majority of γ samples correct) ≥ min(1/2+4δ, 51/100) in all δ regimes",
		Run: func(o Options) (*Report, error) {
			r := &Report{}
			trials := 200000
			if o.Quick {
				trials = 40000
			}
			cell := uint64(0) // each (ε, δ) cell draws under its own key
			allHold := true
			mcClose := true
			for _, eps := range []float64{0.1, 0.2, 0.3} {
				gamma := 2*int(math.Ceil(4/(eps*eps))) + 1
				tb := trace.NewTable(
					fmt.Sprintf("E5: majority boost (ε = %.2f, γ = %d, %d trials)", eps, gamma, trials),
					"regime", "delta", "exact", "two-step MC", "paper bound", "holds")
				for _, d := range []struct {
					regime string
					delta  float64
				}{
					{"small", 0.0005}, {"small", 0.005},
					{"medium", 0.02}, {"medium", 0.05},
					{"large", 0.1}, {"large", 0.25}, {"large", 0.5},
				} {
					q := stats.SampleCorrectProb(d.delta, eps)
					exact := stats.MajoritySuccessProb(gamma, q)
					proc := stats.NewTwoStepProcess(gamma, 2*eps*d.delta)
					mc := proc.SuccessRate(trials, rng.NewKey(20240614+cell))
					cell++
					bound := stats.Lemma211Bound(d.delta)
					holds := exact >= bound-1e-9
					if !holds {
						allHold = false
					}
					if math.Abs(mc-exact) > 0.01 {
						mcClose = false
					}
					tb.AddRowValues(d.regime, d.delta, exact, mc, bound, holds)
				}
				r.Tables = append(r.Tables, tb)
			}
			r.addCheck("Lemma 2.11 bound holds exactly", allHold, "all (ε, δ) combinations")
			r.addCheck("two-step process matches direct sampling", mcClose,
				"Monte-Carlo within 0.01 of the exact probability")
			return r, nil
		},
	}
}

// --- E6: Stage II amplification (Lemma 2.14, Cor. 2.15) ---

func e6() *Experiment {
	return &Experiment{
		ID:          "E6",
		Title:       "Stage II per-phase bias amplification",
		PaperRef:    "Lemma 2.14, Corollary 2.15",
		Expectation: "small bias multiplies by ≥ 1.7 per phase until it is a constant, then unanimity",
		Run: func(o Options) (*Report, error) {
			n := 16384
			if o.Quick {
				n = 4096
			}
			eps := 0.3
			params := core.DefaultParams(n, eps)
			r := &Report{}
			for _, delta1 := range []float64{0.02, 0.05} {
				tb := trace.NewTable(
					fmt.Sprintf("E6: Stage II trajectory (n = %d, ε = %.2f, initial bias %.2f, averaged over %d seeds)",
						n, eps, delta1, o.seeds()),
					"phase", "bias after", "successful", "amplification")
				phases := params.K + 1
				biasAcc := make([]stats.Running, phases)
				succAcc := make([]stats.Running, phases)
				finalAllCorrect := 0
				correctA := int(float64(n) * (0.5 + delta1))
				consensus := func(*sim.Config) (*core.Protocol, error) {
					return core.NewConsensus(params, channel.One, correctA, n-correctA)
				}
				err := replicate(request(n, eps), o.seeds(), consensus, func(r replica[*core.Protocol]) {
					for j, st := range r.proto.Telemetry().StageII {
						biasAcc[j].Add(st.Bias())
						succAcc[j].Add(float64(st.Successful))
					}
					if r.res.AllCorrect(channel.One) {
						finalAllCorrect++
					}
				})
				if err != nil {
					return nil, err
				}
				prev := delta1
				minAmp := math.Inf(1)
				for j := 0; j < phases; j++ {
					amp := biasAcc[j].Mean() / prev
					// Only count amplification while bias is small (the
					// lemma's regime) and not the final confirmation phase.
					if j < phases-1 && prev < 0.2 {
						minAmp = math.Min(minAmp, amp)
					}
					tb.AddRowValues(j+1, biasAcc[j].Mean(), succAcc[j].Mean(), amp)
					prev = biasAcc[j].Mean()
				}
				r.Tables = append(r.Tables, tb)
				r.addCheck(fmt.Sprintf("amplification ≥ 1.3 while bias small (δ₁=%.2f)", delta1),
					minAmp >= 1.3, fmt.Sprintf("min per-phase factor %.2f (paper proves 1.7 w.h.p.)", minAmp))
				r.addCheck(fmt.Sprintf("unanimity reached (δ₁=%.2f)", delta1),
					finalAllCorrect >= o.seeds()-1,
					fmt.Sprintf("%d/%d seeds fully correct", finalAllCorrect, o.seeds()))
			}
			return r, nil
		},
	}
}
