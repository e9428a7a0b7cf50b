package baseline

import (
	"reflect"
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// Bulk-interface suite: the engine collects the baselines through their
// sender lists, so the lists must agree with each baseline's Send rule at
// every round, a run must be byte-identical with the Send scan of
// simtest.PerAgent, and Setup must re-arm a protocol value for a fresh run.

const bulkTestN = 1024

// baselines returns a fresh value of each baseline. SilentWait's source
// sends a zero, so both lists are exercised.
func baselines() []sim.Protocol {
	return []sim.Protocol{
		&ImmediateForward{Target: channel.One, Rounds: 60},
		&SilentWait{Target: channel.Zero, Needed: 2, Rounds: 400},
		&NoisyVoter{Target: channel.One, InitialCorrect: bulkTestN * 3 / 5, Rounds: 60},
		&TwoChoiceMajority{Target: channel.One, InitialCorrect: bulkTestN * 3 / 5, Rounds: 60},
	}
}

type bulkScenario struct {
	name string
	cfg  sim.Config
}

// bulkScenarios covers self-messages on and off, drops and crashes.
func bulkScenarios() []bulkScenario {
	base := sim.Config{N: bulkTestN, Channel: channel.FromEpsilon(0.3), Seed: 5}
	self, drops, crashes := base, base, base
	self.AllowSelfMessages = true
	drops.DropProb = 0.05
	crashes.AllowSelfMessages = true
	crashes.Failures = sim.NewRandomCrashes(bulkTestN, 0.1, 3, rng.NewKey(5))
	return []bulkScenario{{"no-self", base}, {"self", self}, {"drops", drops}, {"self-crashes", crashes}}
}

// record returns what a baseline reports beyond its Result.
func record(p sim.Protocol) any {
	switch p := p.(type) {
	case *SilentWait:
		return p.FirstDoneRound
	case *NoisyVoter:
		return slices.Clone(p.Trajectory)
	case *TwoChoiceMajority:
		return slices.Clone(p.Trajectory)
	}
	return nil
}

// checkListsRound compares BulkSenders(round) with a Send scan over every
// agent as multisets of (agent, bit), and returns the number listed.
// Observers run after EndRound, so callers pass round+1 — the round the
// engine collects next.
func checkListsRound(t *testing.T, name string, p sim.Protocol, round int) int {
	t.Helper()
	zeros, ones := p.BulkSenders(round)
	listed := make([]int, bulkTestN) // 0: not listed, 1 + bit: listed with bit
	for bit, list := range [2][]int32{zeros, ones} {
		for _, a := range list {
			if listed[a] != 0 {
				t.Fatalf("%s round %d: agent %d listed twice", name, round, a)
			}
			listed[a] = 1 + bit
		}
	}
	for a := range bulkTestN {
		want := 0
		if bit, ok := p.Send(a, round); ok {
			want = 1 + int(bit)
		}
		if listed[a] != want {
			t.Fatalf("%s round %d agent %d: listed as %d, Send says %d", name, round, a, listed[a], want)
		}
	}
	return len(zeros) + len(ones)
}

func TestBulkSendersMatchSendScan(t *testing.T) {
	for _, sc := range bulkScenarios() {
		cfg := sc.cfg
		for _, p := range baselines() {
			name := p.Name() + "/" + sc.name
			rounds, listed := 0, 0
			cfg.Observer = func(round int, _ *sim.Engine) {
				listed += checkListsRound(t, name, p, round+1)
				rounds++
			}
			if _, err := sim.Run(cfg, p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rounds == 0 || listed == 0 {
				t.Fatalf("%s: checked %d rounds with %d listed senders", name, rounds, listed)
			}
		}
	}
}

func TestBulkMatchesPerAgent(t *testing.T) {
	for _, sc := range bulkScenarios() {
		cfg := sc.cfg
		for i, p := range baselines() {
			name := p.Name() + "/" + sc.name
			bulk, err := sim.Run(cfg, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			q := baselines()[i]
			perAgent, err := sim.Run(cfg, simtest.PerAgent(q))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if bulk != perAgent {
				t.Errorf("%s: bulk and per-agent collection diverged:\n%+v\n%+v", name, bulk, perAgent)
			}
			if got, want := record(p), record(q); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: bulk run recorded %v, per-agent run %v", name, got, want)
			}
			if bulk.Paths.PerMessage == 0 || bulk.Paths.Dense+bulk.Paths.Sharded+bulk.Paths.Sparse != 0 {
				t.Errorf("%s: paths %v, want scatter rounds only", name, bulk.Paths)
			}
		}
	}
}

// TestSetupRearms runs each baseline value twice on the same
// configuration, as a worker that reuses a protocol would: both runs must
// give the same Result and a fresh record — SilentWait's FirstDoneRound
// and the dynamics' Trajectory, one entry per round.
func TestSetupRearms(t *testing.T) {
	cfg := sim.Config{N: 4096, Channel: channel.FromEpsilon(0.3), Seed: 2, AllowSelfMessages: true}
	for _, p := range baselines() {
		first, err := sim.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		firstRec := record(p)
		second, err := sim.Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("%s: second run diverged:\n%+v\n%+v", p.Name(), first, second)
		}
		if got := record(p); !reflect.DeepEqual(got, firstRec) {
			t.Errorf("%s: second run recorded %v, first %v", p.Name(), got, firstRec)
		}
		switch rec := record(p).(type) {
		case int:
			if rec < 0 {
				t.Errorf("%s: FirstDoneRound = %d after a finished run", p.Name(), rec)
			}
		case []int:
			if len(rec) != second.Rounds {
				t.Errorf("%s: trajectory of %d entries for %d rounds", p.Name(), len(rec), second.Rounds)
			}
		}
	}
}
