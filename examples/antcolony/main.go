// Ant colony house-hunting: the paper's §1.2 motivates majority-consensus
// with ants choosing between two nest sites, reaching consensus on the
// site that attracted more scouts (Franks et al. 2002).
//
// Here a colony of 8192 ants has sent out 600 scouts: 390 favour nest A
// and 210 favour nest B (majority-bias 0.15 toward A). Scouts recruit by
// noisy one-bit contacts ("tandem-run toward A or B" garbled with
// probability 0.2). The whole colony must commit to nest A.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"breathe"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	const (
		colony  = 8192
		scoutsA = 390 // scouts recruiting for nest A (the better site)
		scoutsB = 210 // scouts recruiting for nest B
		epsilon = 0.3 // contacts are misunderstood with prob 1/2 − ε = 0.2
	)

	fmt.Fprintf(out, "colony of %d ants; %d scouts for A vs %d for B (bias %.2f)\n",
		colony, scoutsA, scoutsB,
		0.5*float64(scoutsA-scoutsB)/float64(scoutsA+scoutsB))

	succeeded := 0
	const expeditions = 5
	for seed := uint64(0); seed < expeditions; seed++ {
		res, err := breathe.MajorityConsensus(breathe.Config{
			N:       colony,
			Epsilon: epsilon,
			Seed:    seed,
			Target:  breathe.OpinionOne, // "nest A"
		}, scoutsA, scoutsB)
		if err != nil {
			return err
		}
		verdict := "chose nest A"
		if !res.Unanimous {
			verdict = fmt.Sprintf("split: %.1f%% for A", 100*res.CorrectFraction)
		}
		fmt.Fprintf(out, "  expedition %d: %5d rounds, %8d contacts — %s\n",
			seed, res.Rounds, res.Messages, verdict)
		if res.Unanimous {
			succeeded++
		}
	}
	fmt.Fprintf(out, "consensus on the majority site in %d/%d expeditions\n", succeeded, expeditions)
	if succeeded == 0 {
		return errors.New("the colony never reached consensus")
	}
	return nil
}
