package sim

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/sim/simtest"
)

func TestTrajectoryRecordsEveryRound(t *testing.T) {
	const n, rounds = 50, 20
	p := simtest.PerAgent(&chatter{rounds: rounds})
	traj := NewTrajectory(p, channel.One)
	cfg := Config{N: n, Channel: channel.NewBSC(0), Seed: 1, Observer: traj.Observe}
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	if len(traj.Correct) != rounds || len(traj.Decided) != rounds {
		t.Fatalf("recorded %d/%d rounds, want %d", len(traj.Correct), len(traj.Decided), rounds)
	}
	for r := 0; r < rounds; r++ {
		if traj.Correct[r] > traj.Decided[r] {
			t.Fatalf("round %d: correct %d > decided %d", r, traj.Correct[r], traj.Decided[r])
		}
		if traj.Decided[r] > n {
			t.Fatalf("round %d: decided %d > n", r, traj.Decided[r])
		}
	}
	// chatter sends only 1s over a noiseless channel: everyone who
	// decided is correct, and eventually everyone decides.
	last := rounds - 1
	if traj.Correct[last] != traj.Decided[last] {
		t.Fatal("noiseless all-ones run should have all decided agents correct")
	}
	if traj.Decided[last] < n-1 {
		t.Fatalf("only %d of %d decided after %d all-send rounds", traj.Decided[last], n, rounds)
	}
}

func TestTrajectoryBiasSeries(t *testing.T) {
	traj := &Trajectory{Correct: []int{0, 5, 10}}
	s := traj.BiasSeries(10)
	if s[0] != -0.5 || s[1] != 0 || s[2] != 0.5 {
		t.Fatalf("bias series %v", s)
	}
}

func TestTrajectoryFirstRoundAllCorrect(t *testing.T) {
	traj := &Trajectory{Correct: []int{3, 9, 10, 10}}
	if got := traj.FirstRoundAllCorrect(10); got != 2 {
		t.Fatalf("FirstRoundAllCorrect = %d", got)
	}
	if got := traj.FirstRoundAllCorrect(11); got != -1 {
		t.Fatalf("unreached target should give -1, got %d", got)
	}
}
