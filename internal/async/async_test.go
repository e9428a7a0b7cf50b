package async

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

func defaultD(n int) int { return 2 * int(math.Ceil(math.Log2(float64(n)))) }

func TestKnownOffsetsConverges(t *testing.T) {
	const n, seeds = 1024, 6
	params := core.DefaultParams(n, 0.3)
	ok := 0
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := NewKnownOffsets(params, channel.One, defaultD(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("seed %d truncated", seed)
		}
		if res.AllCorrect(channel.One) {
			ok++
		}
	}
	if ok < seeds-1 {
		t.Fatalf("known-offsets broadcast succeeded %d/%d", ok, seeds)
	}
}

func TestSelfSyncConverges(t *testing.T) {
	const n, seeds = 1024, 6
	params := core.DefaultParams(n, 0.3)
	L := 3 * int(math.Ceil(math.Log2(float64(n))))
	ok := 0
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := NewSelfSync(params, channel.One, L)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if p.InformedDuringPrelude() != n {
			t.Logf("seed %d: prelude informed %d/%d", seed, p.InformedDuringPrelude(), n)
		}
		if res.AllCorrect(channel.One) {
			ok++
		}
	}
	if ok < seeds-1 {
		t.Fatalf("self-sync broadcast succeeded %d/%d", ok, seeds)
	}
}

func TestConstructorsValidate(t *testing.T) {
	params := core.DefaultParams(256, 0.3)
	if _, err := NewKnownOffsets(params, channel.One, 0); err == nil {
		t.Error("D = 0 accepted")
	}
	if _, err := NewSelfSync(params, channel.One, 0); err == nil {
		t.Error("prelude 0 accepted")
	}
	bad := params
	bad.Gamma = 2
	if _, err := NewKnownOffsets(bad, channel.One, 8); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestOverheadIsAdditiveDilations(t *testing.T) {
	// Theorem 3.1: async total = sync total + (#phases−1)·D for known
	// offsets. Verify the arithmetic directly.
	params := core.DefaultParams(4096, 0.3)
	syncRounds := params.TotalRounds()
	D := defaultD(4096)
	p, err := NewKnownOffsets(params, channel.One, D)
	if err != nil {
		t.Fatal(err)
	}
	want := syncRounds + (p.NumPhases()-1)*D
	if p.TotalRounds() != want {
		t.Fatalf("TotalRounds = %d, want %d", p.TotalRounds(), want)
	}
	// Self-sync adds the prelude and one extra D of slack.
	L := 3 * 12
	s, err := NewSelfSync(params, channel.One, L)
	if err != nil {
		t.Fatal(err)
	}
	wantSelf := syncRounds + (s.NumPhases()-1)*L + 2*L + L
	if s.TotalRounds() != wantSelf {
		t.Fatalf("self-sync TotalRounds = %d, want %d", s.TotalRounds(), wantSelf)
	}
}

func TestOverheadGrowsLinearlyInD(t *testing.T) {
	params := core.DefaultParams(1024, 0.3)
	p1, _ := NewKnownOffsets(params, channel.One, 5)
	p2, _ := NewKnownOffsets(params, channel.One, 10)
	d1 := p1.TotalRounds() - params.TotalRounds()
	d2 := p2.TotalRounds() - params.TotalRounds()
	if d2 != 2*d1 {
		t.Fatalf("overhead not linear in D: %d vs %d", d1, d2)
	}
}

// sendTap wraps the protocol to observe per-round sends for invariant
// checks. The engine collects in bulk, so it only sees the Send override
// behind simtest.PerAgent.
type sendTap struct {
	*Protocol
	// sendPhase[g] records the set of phase positions that produced
	// sends in round g (must be a single phase per round).
	sendPhase map[int]map[int]bool
}

func (s *sendTap) Send(a, g int) (channel.Bit, bool) {
	bit, ok := s.Protocol.Send(a, g)
	if ok && !s.Protocol.inPrelude(a, g) {
		l, _ := s.Protocol.localClock(a, g)
		k := s.Protocol.phaseOfLocal(l)
		if s.sendPhase[g] == nil {
			s.sendPhase[g] = map[int]bool{}
		}
		s.sendPhase[g][k] = true
	}
	return bit, ok
}

// TestGlobalPhaseWindowsDisjoint asserts the attribution invariant the
// construction rests on: in any global round, all transmitting agents
// are executing the same phase, and it is the phase the receiver-side
// attribution (phaseOfGlobal) derives from the round number.
func TestGlobalPhaseWindowsDisjoint(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	for _, mode := range []string{"offsets", "selfsync"} {
		var p *Protocol
		var err error
		if mode == "offsets" {
			p, err = NewKnownOffsets(params, channel.One, defaultD(n))
		} else {
			p, err = NewSelfSync(params, channel.One, 3*9)
		}
		if err != nil {
			t.Fatal(err)
		}
		tap := &sendTap{Protocol: p, sendPhase: map[int]map[int]bool{}}
		if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 3}, simtest.PerAgent(tap)); err != nil {
			t.Fatal(err)
		}
		if len(tap.sendPhase) == 0 {
			t.Fatalf("%s: recorded no sending round", mode)
		}
		for g, phases := range tap.sendPhase { //breathe:order-ok each round is asserted independently
			if len(phases) != 1 {
				t.Fatalf("%s: round %d has sends from %d distinct phases", mode, g, len(phases))
			}
			for k := range phases { //breathe:order-ok each phase is asserted independently
				if got := p.phaseOfGlobal(g); got != k {
					t.Fatalf("%s: round %d attributed to phase %d but senders were in %d", mode, g, got, k)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	const n = 256
	params := core.DefaultParams(n, 0.3)
	run := func() sim.Result {
		p, err := NewKnownOffsets(params, channel.One, defaultD(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 7}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestMessageComplexityUnchanged(t *testing.T) {
	// §3: the dilation adds waiting rounds, not messages. Async totals
	// must stay within a small factor of the synchronous run (the same
	// numbers of per-phase sends occur; only the clock stretches).
	const n = 512
	params := core.DefaultParams(n, 0.3)
	syncP, err := core.NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	syncRes, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 5}, syncP)
	if err != nil {
		t.Fatal(err)
	}
	asyncP, err := NewKnownOffsets(params, channel.One, defaultD(n))
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 5}, asyncP)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(asyncRes.MessagesSent) / float64(syncRes.MessagesSent)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("async/sync message ratio %v, want about 1 (async %d, sync %d)",
			ratio, asyncRes.MessagesSent, syncRes.MessagesSent)
	}
	if asyncRes.Rounds <= syncRes.Rounds {
		t.Fatal("async run should take more rounds than sync")
	}
}

func TestStageIIStatsRecorded(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	p, err := NewKnownOffsets(params, channel.One, defaultD(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 9}, p); err != nil {
		t.Fatal(err)
	}
	stats := p.StageIIStats()
	if len(stats) != params.K+1 {
		t.Fatalf("got %d Stage II stats, want %d", len(stats), params.K+1)
	}
	last := stats[len(stats)-1]
	if last.Correct < n-n/100 {
		t.Fatalf("final correct %d of %d", last.Correct, n)
	}
}

func TestSetupPanicsOnWrongN(t *testing.T) {
	p, err := NewKnownOffsets(core.DefaultParams(100, 0.3), channel.One, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched n")
		}
	}()
	p.Setup(101, rng.NewKey(1))
}

func TestOpinionBeforeSetup(t *testing.T) {
	p, err := NewKnownOffsets(core.DefaultParams(100, 0.3), channel.One, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Opinion(3); ok {
		t.Fatal("opinion before setup")
	}
}

func TestSelfSyncPreludeInformsEveryone(t *testing.T) {
	const n = 1024
	params := core.DefaultParams(n, 0.3)
	L := 3 * int(math.Ceil(math.Log2(float64(n))))
	p, err := NewSelfSync(params, channel.One, L)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 11}, p); err != nil {
		t.Fatal(err)
	}
	if p.InformedDuringPrelude() < n-n/100 {
		t.Fatalf("prelude informed only %d of %d", p.InformedDuringPrelude(), n)
	}
}

func TestNames(t *testing.T) {
	params := core.DefaultParams(64, 0.3)
	a, _ := NewKnownOffsets(params, channel.One, 4)
	if a.Name() != "breathe-async-offsets" {
		t.Errorf("name %q", a.Name())
	}
	b, _ := NewSelfSync(params, channel.One, 4)
	if b.Name() != "breathe-async-selfsync" {
		t.Errorf("name %q", b.Name())
	}
}

func TestTargetZeroWorks(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	p, err := NewKnownOffsets(params, channel.Zero, defaultD(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 13}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.Zero) {
		t.Fatalf("async broadcast of 0 failed: %+v", res)
	}
}

func TestKnownOffsetsConsensusConverges(t *testing.T) {
	const n, seeds = 1024, 5
	params := core.DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	ok := 0
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := NewKnownOffsetsConsensus(params, channel.One, sizeA*3/4, sizeA/4, defaultD(n))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.AllCorrect(channel.One) {
			ok++
		}
	}
	if ok < seeds-1 {
		t.Fatalf("async consensus succeeded %d/%d", ok, seeds)
	}
}

func TestKnownOffsetsConsensusName(t *testing.T) {
	params := core.DefaultParams(256, 0.3)
	p, err := NewKnownOffsetsConsensus(params, channel.One, 100, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "breathe-async-consensus" {
		t.Errorf("name %q", p.Name())
	}
	// Skipping early phases makes the run shorter than async broadcast.
	b, err := NewKnownOffsets(params, channel.One, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalRounds() >= b.TotalRounds() {
		t.Errorf("consensus %d rounds >= broadcast %d", p.TotalRounds(), b.TotalRounds())
	}
}

func TestKnownOffsetsConsensusValidation(t *testing.T) {
	params := core.DefaultParams(256, 0.3)
	cases := []struct{ correct, wrong, d int }{
		{0, 0, 8}, {-1, 5, 8}, {5, -1, 8}, {200, 100, 8}, {10, 5, 0},
	}
	for _, c := range cases {
		if _, err := NewKnownOffsetsConsensus(params, channel.One, c.correct, c.wrong, c.d); err == nil {
			t.Errorf("NewKnownOffsetsConsensus(%d, %d, D=%d) accepted", c.correct, c.wrong, c.d)
		}
	}
}

func TestKnownOffsetsConsensusMajorityZero(t *testing.T) {
	const n = 1024
	params := core.DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	p, err := NewKnownOffsetsConsensus(params, channel.Zero, sizeA*3/4, sizeA/4, defaultD(n))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 3}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.Zero) {
		t.Fatalf("majority-0 async consensus failed: %+v", res)
	}
}
