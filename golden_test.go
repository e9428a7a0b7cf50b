package breathe

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// Golden regression tests: exact values for fixed seeds. These pin down
// the deterministic execution so that refactors of the engine, the RNG
// splitting scheme, or the protocol state machine cannot silently change
// behaviour. If a change legitimately alters the execution (e.g. a new
// RNG draw order), regenerate the constants and say so in the commit.

func TestGoldenRNGStream(t *testing.T) {
	r := rng.New(12345)
	want := []uint64{
		0xbe6a36374160d49b, 0x214aaa0637a688c6, 0xf69d16de9954d388,
		0xc60048c4e96e033, 0x8e2076aeed51c648,
	}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestGoldenBroadcastRun(t *testing.T) {
	// The keyed schedule is kernel-blind: the per-agent and the batched
	// kernel must both reproduce this constant. (The model reference's own
	// draw-for-draw pin is TestGoldenBroadcastRunPerAgent in internal/sim.)
	res, err := Broadcast(Config{N: 1024, Epsilon: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1236 {
		t.Errorf("Rounds = %d, want 1236", res.Rounds)
	}
	if res.Messages != 853783 {
		t.Errorf("Messages = %d, want 853783", res.Messages)
	}
	if !res.Unanimous {
		t.Error("expected unanimity")
	}
	for _, kernel := range []sim.Kernel{sim.KernelPerAgent, sim.KernelAuto} {
		p, err := core.NewBroadcast(core.DefaultParams(1024, 0.3), channel.One)
		if err != nil {
			t.Fatal(err)
		}
		kres, err := sim.Run(sim.Config{
			N: 1024, Channel: channel.FromEpsilon(0.3), Seed: 1, Kernel: kernel,
		}, p)
		if err != nil {
			t.Fatal(err)
		}
		if kres.Rounds != 1236 || kres.MessagesSent != 853783 {
			t.Errorf("kernel %d: %d rounds, %d messages; want 1236, 853783", kernel, kres.Rounds, kres.MessagesSent)
		}
	}
}

func TestGoldenEngineAccounting(t *testing.T) {
	p, err := core.NewBroadcast(core.DefaultParams(256, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: 256, Channel: channel.FromEpsilon(0.3), Seed: 7}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != res.MessagesAccepted+res.MessagesDropped {
		t.Fatal("conservation violated")
	}
	if res.Rounds != p.Params().TotalRounds() {
		t.Fatalf("rounds %d != schedule %d", res.Rounds, p.Params().TotalRounds())
	}
}

func TestGoldenParams(t *testing.T) {
	p := core.DefaultParams(4096, 0.3)
	want := core.Params{
		N: 4096, Eps: 0.3,
		BetaS: 267, Beta: 34, T: 0, BetaF: 267,
		Gamma: 47, K: 8, GammaFinal: 135,
	}
	if p != want {
		t.Fatalf("DefaultParams(4096, 0.3) = %+v, want %+v", p, want)
	}
	if p.TotalRounds() != 1556 {
		t.Fatalf("TotalRounds = %d, want 1556", p.TotalRounds())
	}
}

func TestGoldenBinomialDraws(t *testing.T) {
	r := rng.New(99)
	got := []int{
		r.Binomial(100, 0.5),
		r.Binomial(100, 0.5),
		r.Binomial(1000, 0.123),
		r.Binomial(7, 0.9),
	}
	want := []int{48, 48, 132, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d: got %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}
