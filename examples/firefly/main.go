// Firefly-style broadcast without a shared clock (paper §3): agents have
// no global time reference — a vigilant individual (the source) spots a
// predator and the alarm direction must reach the whole swarm even though
// each agent's clock starts only when it is first contacted.
//
// The run uses the self-stabilizing mode: an activation wave of
// "arbitrary flashes" synchronizes clocks to within O(log n) rounds, then
// the dilated two-stage protocol runs on the synchronized clocks. Total
// cost is O(log n/ε² + log² n) rounds with unchanged message complexity
// (Theorem 3.1).
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
		swarm   = 4096
		epsilon = 0.3
	)

	sync, err := breathe.Broadcast(breathe.Config{N: swarm, Epsilon: epsilon, Seed: 7})
	if err != nil {
		return err
	}

	async, err := breathe.BroadcastAsync(breathe.Config{
		N:       swarm,
		Epsilon: epsilon,
		Seed:    7,
		Mode:    breathe.SyncSelfStabilizing,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "swarm of %d agents, ε = %.2f\n\n", swarm, epsilon)
	fmt.Fprintf(out, "with a global clock:    %5d rounds, %9d messages, unanimous: %v\n",
		sync.Rounds, sync.Messages, sync.Unanimous)
	fmt.Fprintf(out, "self-synchronizing:     %5d rounds, %9d messages, unanimous: %v\n",
		async.Rounds, async.Messages, async.Unanimous)
	fmt.Fprintf(out, "\nsynchronization overhead: %d extra rounds (additive O(log² n))\n",
		async.Rounds-sync.Rounds)
	fmt.Fprintf(out, "message overhead:         %+.1f%% (waiting is free)\n",
		100*(float64(async.Messages)/float64(sync.Messages)-1))

	if !async.Unanimous {
		return errors.New("asynchronous broadcast failed")
	}
	return nil
}
