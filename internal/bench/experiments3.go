package bench

import (
	"fmt"

	"breathe/internal/api"
	"breathe/internal/core"
	"breathe/internal/trace"
)

// --- E13: the breathing rule is load-bearing (§1.6 ablation) ---

func e13() *Experiment {
	return &Experiment{
		ID:          "E13",
		Title:       "Ablation: removing the breathing rule",
		PaperRef:    "Section 1.6 (difficulty discussion)",
		Expectation: "without phase-synchronized waiting, the population converges to the WRONG unanimous opinion with non-negligible probability; the paper rule never does",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 1024
			}
			seeds := o.seeds() * 2
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E13: paper rule vs no-breathe (n = %d, %d seeds per cell)", n, seeds),
				"eps", "paper: correct/wrong-majority", "no-breathe: correct/wrong-majority")
			sawDegradation := false
			paperClean := true
			for _, eps := range pick(o, []float64{0.15}, []float64{0.25, 0.2, 0.15}) {
				req := request(n, eps)
				paper, err := tallyRuns(req, seeds)
				if err != nil {
					return nil, err
				}
				req.Protocol = api.ProtoBroadcastNoBreathe
				ablated, err := tallyRuns(req, seeds)
				if err != nil {
					return nil, err
				}
				okP, wrongP, okA, wrongA := paper.unanimous, paper.wrong, ablated.unanimous, ablated.wrong
				tb.AddRowValues(eps,
					fmt.Sprintf("%d/%d / %d", okP, seeds, wrongP),
					fmt.Sprintf("%d/%d / %d", okA, seeds, wrongA))
				if wrongA > 0 || okA < okP {
					sawDegradation = true
				}
				if wrongP > 0 || okP < seeds-1 {
					paperClean = false
				}
				o.logf("E13: eps=%v paper %d/%d, ablated %d/%d (wrong %d)", eps, okP, seeds, okA, seeds, wrongA)
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("paper rule reliable everywhere", paperClean, "no wrong-majority outcomes")
			r.addCheck("no-breathe degrades (wrong consensus appears)", sawDegradation,
				"the §1.6 failure mode reproduced")
			return r, nil
		},
	}
}

// --- E14: the Remark 2.1 / 2.10 decision-rule alternatives ---

func e14() *Experiment {
	return &Experiment{
		ID:          "E14",
		Title:       "Ablation: alternative message/subset choice rules",
		PaperRef:    "Remarks 2.1 and 2.10",
		Expectation: "first-message and first-γ-samples rules are equivalent to the random choices under a global clock; majority over all samples also works",
		Run: func(o Options) (*Report, error) {
			n := 2048
			if o.Quick {
				n = 1024
			}
			eps := 0.3
			params := core.DefaultParams(n, eps)
			seeds := o.seeds()
			r := &Report{}
			tb := trace.NewTable(
				fmt.Sprintf("E14: decision-rule variants (n = %d, ε = %.2f, %d seeds)", n, eps, seeds),
				"variant", "unanimous", "wrong-majority", "mean final bias")
			variants := []core.Variant{
				{},
				{FirstMessage: true},
				{PrefixSubset: true},
				{FirstMessage: true, PrefixSubset: true},
				{FullSampleMajority: true},
			}
			allEquivalent := true
			for _, v := range variants {
				var cell tally
				err := replicate(request(n, eps), seeds, broadcastOf(params, v), func(r replica[*core.Protocol]) { cell.add(r.res) })
				if err != nil {
					return nil, err
				}
				tb.AddRowValues(v.Name(), fmt.Sprintf("%d/%d", cell.unanimous, seeds), cell.wrong, cell.bias.Mean())
				if cell.unanimous < seeds-1 || cell.wrong > 0 {
					allEquivalent = false
				}
				o.logf("E14: %s %d/%d", v.Name(), cell.unanimous, seeds)
			}
			r.Tables = append(r.Tables, tb)
			r.addCheck("all alternative rules converge w.h.p.", allEquivalent,
				"Remarks 2.1/2.10 equivalences hold empirically")
			return r, nil
		},
	}
}
