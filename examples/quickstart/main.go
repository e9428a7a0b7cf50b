// Quickstart: broadcast one bit through a population of 4096 anonymous
// agents whose every message is flipped with probability 0.2
// (ε = 0.3), and confirm that all agents converge on the source's
// opinion.
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
	res, err := breathe.Broadcast(breathe.Config{
		N:       4096,
		Epsilon: 0.3, // each bit flips with probability 1/2 − ε = 0.2
		Seed:    1,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "population:        4096 agents, 1 source\n")
	fmt.Fprintf(out, "rounds:            %d\n", res.Rounds)
	fmt.Fprintf(out, "messages (bits):   %d\n", res.Messages)
	fmt.Fprintf(out, "correct fraction:  %.4f\n", res.CorrectFraction)
	fmt.Fprintf(out, "unanimous:         %v\n", res.Unanimous)
	fmt.Fprintf(out, "bias after Stage I (spreading): %.4f\n", res.Telemetry.BiasAfterStageI)
	fmt.Fprintf(out, "Stage II phases (boosting):     %d\n", len(res.Telemetry.StageII))

	if !res.Unanimous {
		return errors.New("broadcast failed — try another seed or larger epsilon")
	}
	return nil
}
