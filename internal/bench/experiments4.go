package bench

import (
	"fmt"

	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/popproto"
	"breathe/internal/sim"
	"breathe/internal/stats"
	"breathe/internal/trace"
)

// --- E15: the three-state population protocol is not noise-robust ---

func e15() *Experiment {
	return &Experiment{
		ID:          "E15",
		Title:       "Three-state approximate majority under symbol noise",
		PaperRef:    "Section 1.2 (Angluin et al. comparison)",
		Expectation: "the AAE protocol converges fast without noise but cannot hold consensus under Flip-level noise; breathe solves the same instance",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 512
			}
			seeds := o.seeds()
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E15: AAE 3-state approximate majority (n = %d, initial 56%%/44%% split, %d seeds)", n, seeds),
				"symbol-noise", "stable consensus", "majority kept", "mean final majority frac")
			initX, initY := n*56/100, n-n*56/100
			noiseless, noisy := 0, 0
			for _, q := range []float64{0, 0.05, 0.1, 0.2} {
				stable, kept := 0, 0
				var frac stats.Running
				for seed := 0; seed < seeds; seed++ {
					res, err := popproto.Run(popproto.Config{
						N: n, InitialX: initX, InitialY: initY,
						SymbolNoise: q, MaxParallelRounds: 400, Seed: uint64(seed),
					})
					if err != nil {
						return nil, err
					}
					if res.Converged {
						stable++
						if res.Winner == popproto.X {
							kept++
						}
					}
					frac.Add(float64(res.FinalX) / float64(n))
				}
				tb.AddRowValues(q, fmt.Sprintf("%d/%d", stable, seeds),
					fmt.Sprintf("%d/%d", kept, seeds), frac.Mean())
				if q == 0 {
					noiseless = stable
				}
				if q == 0.2 {
					noisy = stable
				}
				o.logf("E15: q=%v stable %d/%d", q, stable, seeds)
			}
			r.Tables = append(r.Tables, tb)

			// The breathe protocol solves the same instance at the
			// equivalent noise level (flip prob 0.2 ⇒ ε = 0.3).
			params := core.DefaultParams(n, 0.3)
			consensus := func(*sim.Config) (*core.Protocol, error) {
				return core.NewConsensus(params, channel.One, initX, initY)
			}
			var breathe tally
			err := replicate(request(n, 0.3), seeds, consensus, func(r replica[*core.Protocol]) { breathe.add(r.res) })
			if err != nil {
				return nil, err
			}
			r.addCheck("AAE converges without noise", noiseless == seeds,
				fmt.Sprintf("%d/%d stable at q=0", noiseless, seeds))
			r.addCheck("AAE cannot stabilize at Flip-level noise", noisy == 0,
				fmt.Sprintf("%d/%d stable at q=0.2", noisy, seeds))
			r.addCheck("breathe solves the same instance at ε=0.3", breathe.unanimous >= seeds-1,
				fmt.Sprintf("%d/%d unanimous", breathe.unanimous, seeds))
			return r, nil
		},
	}
}

// --- E16: the two-party Shannon baseline (§1.4) ---

func e16() *Experiment {
	return &Experiment{
		ID:          "E16",
		Title:       "Two-party noisy broadcast (Shannon baseline)",
		PaperRef:    "Section 1.4 (two-party restriction)",
		Expectation: "Θ(1/ε²) channel uses are necessary and sufficient for constant confidence between two parties",
		Run: func(o Options) (*Report, error) {
			r := &Report{}
			tb := trace.NewTable("E16: channel uses for 95% two-party confidence",
				"eps", "m* (exact)", "m*·ε²", "err at m*", "err at m*/4")
			var invEps, ms []float64
			for _, eps := range []float64{0.4, 0.3, 0.2, 0.1, 0.05} {
				m := baseline.DirectSourceRoundsNeeded(1, eps, 0.05)
				errAt := baseline.DirectSourceErrProb(m, eps)
				quarter := m / 4
				if quarter < 1 {
					quarter = 1
				}
				if quarter%2 == 0 {
					quarter++
				}
				errQuarter := baseline.DirectSourceErrProb(quarter, eps)
				tb.AddRowValues(eps, m, float64(m)*eps*eps, errAt, errQuarter)
				invEps = append(invEps, 1/eps)
				ms = append(ms, float64(m))
			}
			r.Tables = append(r.Tables, tb)
			expo, _, r2 := stats.FitPowerLaw(invEps, ms)
			r.addCheck("m* ∝ 1/ε²", expo > 1.6 && expo < 2.4 && r2 > 0.98,
				fmt.Sprintf("fitted exponent %.2f (R²=%.3f)", expo, r2))
			// Sufficiency and necessity at the measured threshold.
			okBoth := true
			for i, eps := range []float64{0.4, 0.3, 0.2, 0.1, 0.05} {
				m := int(ms[i])
				if baseline.DirectSourceErrProb(m, eps) > 0.05 {
					okBoth = false
				}
			}
			r.addCheck("m* achieves the 95% target", okBoth, "err(m*) ≤ 0.05 for all ε")
			dropOff := baseline.DirectSourceErrProb(3, 0.05) > 0.3
			r.addCheck("far below m* the channel is useless", dropOff,
				fmt.Sprintf("err(3 uses, ε=0.05) = %.3f", baseline.DirectSourceErrProb(3, 0.05)))
			return r, nil
		},
	}
}
