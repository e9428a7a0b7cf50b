package breathe

import (
	"math"
	"testing"

	"breathe/internal/core"
)

func TestBroadcastPublicAPI(t *testing.T) {
	res, err := Broadcast(Config{N: 1024, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatalf("broadcast not unanimous: %+v", res)
	}
	if res.CorrectFraction != 1 {
		t.Errorf("CorrectFraction = %v", res.CorrectFraction)
	}
	if res.Rounds <= 0 || res.Messages <= 0 {
		t.Errorf("implausible accounting: %+v", res)
	}
	if res.Telemetry == nil || len(res.Telemetry.StageI) == 0 {
		t.Error("telemetry missing")
	}
}

func TestBroadcastDefaultTargetIsOne(t *testing.T) {
	res, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatal("default-target broadcast failed")
	}
	res0, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 2, Target: OpinionZero})
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Unanimous {
		t.Fatal("target-zero broadcast failed")
	}
}

func TestConfigValidation(t *testing.T) {
	params := core.DefaultParams(512, 0.3)
	nan := math.NaN()
	cases := []Config{
		{N: 1, Epsilon: 0.3},
		{N: 100, Epsilon: 0},
		{N: 100, Epsilon: 0.6},
		{N: 100, Epsilon: math.NaN()},
		// 1/2 − ε rounds to 1/2, with derived and with explicit params.
		{N: 100, Epsilon: 1e-300},
		{N: 512, Epsilon: 1e-300, Params: &params},
		// A derived schedule that overflows int.
		{N: 64, Epsilon: 1e-12},
		{N: 512, Epsilon: 0.3, FlipProb: &nan},
	}
	for _, cfg := range cases {
		if _, err := Broadcast(cfg); err == nil {
			t.Errorf("Broadcast accepted config %+v", cfg)
		}
		if _, err := BroadcastAsync(cfg); err == nil {
			t.Errorf("BroadcastAsync accepted config %+v", cfg)
		}
		if _, err := MajorityConsensus(cfg, 3, 1); err == nil {
			t.Errorf("MajorityConsensus accepted config %+v", cfg)
		}
	}
}

func TestFlipProbOverride(t *testing.T) {
	quiet := 0.05
	res, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 3, FlipProb: &quiet})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatal("quieter channel should still succeed")
	}
	tooNoisy := 0.3 // exceeds 1/2 − 0.3 = 0.2
	if _, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 3, FlipProb: &tooNoisy}); err == nil {
		t.Fatal("FlipProb above 1/2−ε accepted")
	}
	zero := 0.0
	res2, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 3, FlipProb: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Unanimous {
		t.Fatal("noiseless override failed")
	}
}

func TestParamsOverride(t *testing.T) {
	p := core.DefaultParams(512, 0.3)
	p.K++ // one extra boosting phase
	res, err := Broadcast(Config{N: 512, Epsilon: 0.3, Seed: 4, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatal("override run failed")
	}
	if got := len(res.Telemetry.StageII); got != p.K+1 {
		t.Errorf("Stage II phases = %d, want %d", got, p.K+1)
	}
	bad := core.Params{}
	if _, err := Broadcast(Config{N: 512, Epsilon: 0.3, Params: &bad}); err == nil {
		t.Fatal("invalid params override accepted")
	}
}

func TestMajorityConsensusPublicAPI(t *testing.T) {
	params := core.DefaultParams(1024, 0.3)
	sizeA := 4 * params.BetaS
	res, err := MajorityConsensus(Config{N: 1024, Epsilon: 0.3, Seed: 5}, sizeA*3/4, sizeA/4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatalf("consensus failed: %+v", res)
	}
	if _, err := MajorityConsensus(Config{N: 1024, Epsilon: 0.3}, 0, 0); err == nil {
		t.Fatal("empty initial set accepted")
	}
}

func TestBroadcastAsyncBothModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncKnownOffsets, SyncSelfStabilizing} {
		res, err := BroadcastAsync(Config{N: 1024, Epsilon: 0.3, Seed: 6, Mode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if !res.Unanimous {
			t.Fatalf("mode %d: not unanimous (%+v)", mode, res)
		}
	}
	if _, err := BroadcastAsync(Config{N: 128, Epsilon: 0.3, Mode: SyncMode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestAsyncCostsMoreRoundsSameMessages(t *testing.T) {
	syncRes, err := Broadcast(Config{N: 1024, Epsilon: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := BroadcastAsync(Config{N: 1024, Epsilon: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if asyncRes.Rounds <= syncRes.Rounds {
		t.Errorf("async rounds %d not above sync %d", asyncRes.Rounds, syncRes.Rounds)
	}
	ratio := float64(asyncRes.Messages) / float64(syncRes.Messages)
	if math.Abs(ratio-1) > 0.2 {
		t.Errorf("message ratio %v, want about 1", ratio)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a, err := Broadcast(Config{N: 512, Epsilon: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Broadcast(Config{N: 512, Epsilon: 0.25, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.CorrectFraction != b.CorrectFraction {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestNoiselessEpsilonHalf(t *testing.T) {
	res, err := Broadcast(Config{N: 256, Epsilon: 0.5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatal("noiseless broadcast failed")
	}
}

func TestMajorityConsensusAsync(t *testing.T) {
	params := core.DefaultParams(1024, 0.3)
	sizeA := 4 * params.BetaS
	res, err := MajorityConsensusAsync(Config{N: 1024, Epsilon: 0.3, Seed: 9}, sizeA*3/4, sizeA/4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous {
		t.Fatalf("async consensus failed: %+v", res)
	}
	if _, err := MajorityConsensusAsync(Config{N: 1024, Epsilon: 0.3, Mode: SyncSelfStabilizing}, 10, 5); err == nil {
		t.Fatal("self-stabilizing consensus should be rejected")
	}
	if _, err := MajorityConsensusAsync(Config{N: 1024, Epsilon: 0.3}, 0, 0); err == nil {
		t.Fatal("empty initial set accepted")
	}
}
