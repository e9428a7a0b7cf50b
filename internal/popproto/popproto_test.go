package popproto

import "testing"

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 1, InitialX: 1},
		{N: 10, InitialX: -1, InitialY: 2},
		{N: 10, InitialX: 2, InitialY: -1},
		{N: 10, InitialX: 7, InitialY: 7},
		{N: 10, InitialX: 5, InitialY: 3, SymbolNoise: -0.1},
		{N: 10, InitialX: 5, InitialY: 3, SymbolNoise: 1.1},
		{N: 10, InitialX: 5, InitialY: 3, MaxParallelRounds: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestTransitionTable(t *testing.T) {
	cases := []struct {
		v, u, want State
	}{
		{X, Y, Blank}, {Y, X, Blank},
		{Blank, X, X}, {Blank, Y, Y},
		{X, X, X}, {Y, Y, Y},
		{X, Blank, X}, {Y, Blank, Y}, {Blank, Blank, Blank},
	}
	for _, c := range cases {
		if got := transition(c.v, c.u); got != c.want {
			t.Errorf("transition(%v, %v) = %v, want %v", c.v, c.u, got, c.want)
		}
	}
}

func TestCorruptNeverIdentity(t *testing.T) {
	for _, s := range []State{Blank, X, Y} {
		a, b := corrupt(s, 0), corrupt(s, 1)
		if a == s || b == s || a == b {
			t.Fatalf("corrupt(%v) gives %v and %v, want the two other symbols", s, a, b)
		}
	}
}

func TestStateString(t *testing.T) {
	if Blank.String() != "b" || X.String() != "x" || Y.String() != "y" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestNoiselessMajorityWins(t *testing.T) {
	// AAE 2008: with a clear initial majority and no noise, consensus on
	// the majority value in O(log n) parallel time w.h.p.
	const n, seeds = 1000, 10
	wins := 0
	for seed := uint64(0); seed < seeds; seed++ {
		res, err := Run(Config{N: n, InitialX: 600, InitialY: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d did not converge in %d rounds", seed, res.ParallelRounds)
		}
		if res.Winner == X {
			wins++
		}
	}
	if wins < seeds-1 {
		t.Fatalf("majority won only %d/%d", wins, seeds)
	}
}

func TestNoiselessConvergenceIsFast(t *testing.T) {
	// O(log n) parallel rounds: for n = 4096 expect convergence well
	// within 200 rounds.
	res, err := Run(Config{N: 4096, InitialX: 2600, InitialY: 1496, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.ParallelRounds > 200 {
		t.Fatalf("slow convergence: %+v", res)
	}
}

func TestAllBlankStaysBlank(t *testing.T) {
	res, err := Run(Config{N: 100, MaxParallelRounds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.FinalBlank != 100 {
		t.Fatalf("blank population changed: %+v", res)
	}
}

func TestUnanimousStartStaysPut(t *testing.T) {
	// A noiseless uniform start is absorbing: it is converged at time
	// zero, with no parallel round (and no interactions) charged.
	res, err := Run(Config{N: 100, InitialX: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Winner != X || res.ParallelRounds != 0 || res.Interactions != 0 {
		t.Fatalf("unanimous start: %+v", res)
	}
	if res.FinalX != 100 || res.FinalY != 0 || res.FinalBlank != 0 {
		t.Fatalf("unanimous start mutated the counts: %+v", res)
	}
}

func TestUnanimousYStartConvergesImmediately(t *testing.T) {
	res, err := Run(Config{N: 64, InitialY: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Winner != Y || res.ParallelRounds != 0 || res.Interactions != 0 {
		t.Fatalf("unanimous Y start: %+v", res)
	}
}

func TestCountsConserved(t *testing.T) {
	res, err := Run(Config{N: 500, InitialX: 300, InitialY: 150, SymbolNoise: 0.1, MaxParallelRounds: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalX+res.FinalY+res.FinalBlank != 500 {
		t.Fatalf("state counts do not sum to n: %+v", res)
	}
	if res.Interactions != int64(res.ParallelRounds)*500 {
		t.Fatalf("interaction accounting: %+v", res)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{N: 300, InitialX: 200, InitialY: 100, SymbolNoise: 0.05, Seed: 42, MaxParallelRounds: 100}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestNoiseBreaksStability reproduces the paper's §1.2 assessment: the
// three-state protocol "is not robust under communication noise". With
// symbol noise at the Flip-model level (misread probability 0.2), a
// population that starts *unanimous* cannot even hold its consensus —
// blanks and the opposite opinion keep being re-created.
func TestNoiseBreaksStability(t *testing.T) {
	const n = 1000
	res, err := Run(Config{
		N: n, InitialX: n, SymbolNoise: 0.2, MaxParallelRounds: 300, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("noisy run reported stable consensus: %+v", res)
	}
	if res.FinalY == 0 && res.FinalBlank == 0 {
		t.Fatalf("noise did not perturb the unanimous population: %+v", res)
	}
}

// TestNoiseDegradesMajorityAccuracy: with a modest initial majority and
// misread probability 0.2, the final majority is substantially eroded
// compared to the noiseless run.
func TestNoiseDegradesMajorityAccuracy(t *testing.T) {
	const n, seeds = 1000, 8
	erodedRuns := 0
	for seed := uint64(0); seed < seeds; seed++ {
		res, err := Run(Config{
			N: n, InitialX: 560, InitialY: 440, SymbolNoise: 0.2,
			MaxParallelRounds: 300, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		frac := float64(res.FinalX) / n
		if !res.Converged || frac < 0.95 {
			erodedRuns++
		}
	}
	if erodedRuns < seeds/2 {
		t.Fatalf("noise eroded only %d/%d runs — protocol unexpectedly robust", erodedRuns, seeds)
	}
}
