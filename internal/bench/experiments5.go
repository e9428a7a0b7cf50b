package bench

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/stats"
	"breathe/internal/trace"
)

// --- E17: calibration frontier for the protocol constants ---

func e17() *Experiment {
	return &Experiment{
		ID:          "E17",
		Title:       "Ablation: how small can the constants go?",
		PaperRef:    "DESIGN.md §5.4 (calibrated vs proof constants)",
		Expectation: "success degrades gracefully as the phase-length constants shrink below the calibrated defaults; the defaults sit inside the reliable region",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 1024
			}
			eps := 0.3
			seeds := o.seeds()
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E17: success vs constant multiplier (n = %d, ε = %.2f, %d seeds)", n, eps, seeds),
				"multiplier", "rounds", "messages", "success rate")
			multipliers := pick(o, []float64{0.25, 1, 2}, []float64{0.125, 0.25, 0.5, 1, 2})
			var rates []float64
			defaultRate := 0.0
			for _, m := range multipliers {
				c := core.DefaultConstants
				c.S *= m
				c.B *= m
				c.F *= m
				c.R *= m
				c.Fin *= m
				params := core.NewParams(n, eps, c)
				succ := 0
				var msgs stats.Running
				rounds := 0
				for seed := 0; seed < seeds; seed++ {
					p, err := core.NewBroadcastVariant(params, channel.One, core.Variant{})
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, p)
					if err != nil {
						return nil, err
					}
					rounds = res.Rounds
					msgs.Add(float64(res.MessagesSent))
					if res.AllCorrect(channel.One) {
						succ++
					}
				}
				rate := float64(succ) / float64(seeds)
				tb.AddRowValues(m, rounds, msgs.Mean(), rate)
				rates = append(rates, rate)
				if m == 1 {
					defaultRate = rate
				}
				o.logf("E17: multiplier %v -> %.2f", m, rate)
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("default constants fully reliable", defaultRate == 1,
				fmt.Sprintf("success rate %.2f at multiplier 1", defaultRate))
			r.addCheck("success is monotone in the budget (with slack)",
				stats.IsMonotoneNondecreasing(rates, 0.35),
				fmt.Sprintf("rates %v across multipliers %v", rates, multipliers))
			return r, nil
		},
	}
}

// --- E18: crash and message-loss robustness ---

func e18() *Experiment {
	return &Experiment{
		ID:          "E18",
		Title:       "Robustness to crash faults and message loss",
		PaperRef:    "Section 1.2 (weak-fault broadcast literature)",
		Expectation: "the protocol tolerates initial crashes of a constant fraction of non-source agents and uniform message loss with only graceful degradation",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 1024
			}
			eps := 0.3
			seeds := o.seeds()
			params := core.DefaultParams(n, eps)
			r := &Report{}

			crashTb := trace.NewTable(
				fmt.Sprintf("E18a: initial crash faults (n = %d, ε = %.2f, %d seeds)", n, eps, seeds),
				"crash fraction", "alive-correct rate", "success rate (all alive correct)")
			crashOK := true
			for _, frac := range pick(o, []float64{0, 0.1}, []float64{0, 0.05, 0.1, 0.2}) {
				succ := 0
				var aliveCorrect stats.Running
				for seed := 0; seed < seeds; seed++ {
					p, err := core.NewBroadcast(params, channel.One)
					if err != nil {
						return nil, err
					}
					plan := sim.NewRandomCrashes(n, frac, 0, rng.NewKey(uint64(1000+seed)), 0)
					res, err := sim.Run(sim.Config{
						N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed), Failures: plan,
					}, p)
					if err != nil {
						return nil, err
					}
					alive := n - plan.NumCrashed()
					frac := float64(res.Opinions[channel.One]) / float64(alive)
					aliveCorrect.Add(frac)
					if res.Opinions[channel.One] == alive {
						succ++
					}
				}
				rate := float64(succ) / float64(seeds)
				crashTb.AddRowValues(frac, aliveCorrect.Mean(), rate)
				if frac <= 0.2 && aliveCorrect.Mean() < 0.99 {
					crashOK = false
				}
				o.logf("E18: crash %.2f -> %.2f", frac, rate)
			}
			r.Tables = append(r.Tables, crashTb)

			dropTb := trace.NewTable(
				fmt.Sprintf("E18b: uniform message loss (n = %d, ε = %.2f, %d seeds)", n, eps, seeds),
				"drop prob", "success rate", "mean final fraction")
			dropOK := true
			for _, drop := range pick(o, []float64{0, 0.2}, []float64{0, 0.1, 0.2, 0.3}) {
				succ := 0
				var frac stats.Running
				for seed := 0; seed < seeds; seed++ {
					p, err := core.NewBroadcast(params, channel.One)
					if err != nil {
						return nil, err
					}
					res, err := sim.Run(sim.Config{
						N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed), DropProb: drop,
					}, p)
					if err != nil {
						return nil, err
					}
					frac.Add(res.CorrectFraction(channel.One))
					if res.AllCorrect(channel.One) {
						succ++
					}
				}
				rate := float64(succ) / float64(seeds)
				dropTb.AddRowValues(drop, rate, frac.Mean())
				if drop <= 0.3 && frac.Mean() < 0.99 {
					dropOK = false
				}
				o.logf("E18: drop %.2f -> %.2f", drop, rate)
			}
			r.Tables = append(r.Tables, dropTb)

			r.addCheck("crashes up to 20% leave survivors correct", crashOK, "alive-correct ≥ 0.99")
			r.addCheck("message loss up to 30% tolerated", dropOK, "final fraction ≥ 0.99")
			return r, nil
		},
	}
}
