package core

import (
	"fmt"
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/stats"
)

// runBroadcast is a test helper executing one broadcast run.
func runBroadcast(t *testing.T, n int, eps float64, seed uint64, target channel.Bit) (sim.Result, *Protocol) {
	t.Helper()
	p, err := NewBroadcast(DefaultParams(n, eps), target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: seed}, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

func TestBroadcastConvergesWHP(t *testing.T) {
	const n, seeds = 1024, 8
	ok := 0
	for seed := uint64(0); seed < seeds; seed++ {
		res, _ := runBroadcast(t, n, 0.3, seed, channel.One)
		if res.Truncated {
			t.Fatalf("seed %d truncated", seed)
		}
		if res.AllCorrect(channel.One) {
			ok++
		}
	}
	if ok < seeds-1 {
		t.Fatalf("broadcast succeeded only %d/%d times", ok, seeds)
	}
}

func TestBroadcastTargetZero(t *testing.T) {
	// The opinions are symmetric: broadcasting B = 0 must work as well.
	res, _ := runBroadcast(t, 1024, 0.3, 5, channel.Zero)
	if !res.AllCorrect(channel.Zero) {
		t.Fatalf("broadcast of 0 failed: %+v", res)
	}
}

func TestBroadcastDeterminism(t *testing.T) {
	r1, _ := runBroadcast(t, 512, 0.3, 9, channel.One)
	r2, _ := runBroadcast(t, 512, 0.3, 9, channel.One)
	if r1 != r2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestBroadcastRoundAndMessageBudget(t *testing.T) {
	// Theorem 2.17: O(log n/ε²) rounds, O(n·log n/ε²) messages. Verify
	// the protocol executes exactly its scheduled rounds and that message
	// totals stay within the budget implied by "every agent sends at most
	// one message per round".
	const n = 1024
	res, p := runBroadcast(t, n, 0.3, 3, channel.One)
	if res.Rounds != p.Params().TotalRounds() {
		t.Errorf("rounds = %d, schedule says %d", res.Rounds, p.Params().TotalRounds())
	}
	if res.MessagesSent > int64(n)*int64(res.Rounds) {
		t.Errorf("messages %d exceed n·rounds budget", res.MessagesSent)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

func TestStageITelemetryEnvelopes(t *testing.T) {
	if err := checkStageIEnvelopes(0, stageISeeds); err != nil {
		t.Fatal(err)
	}
}

// stageISeeds is TestStageITelemetryEnvelopes's replication count.
const stageISeeds = 20

// checkStageIEnvelopes runs Stage I of the n = 8192 broadcast for seeds
// base .. base+seeds−1 and checks Claims 2.2 and 2.4. Per seed, the
// envelopes that hold with probability 1: X_i is nondecreasing,
// X_i = X_{i−1} + Y_i, Z_i ≤ Y_i and X_i ≤ (β+1)^i·X₀; and the w.h.p.
// X₀ ∈ [βs/3, βs], whose lower edge sits far below X₀'s typical value
// (the source's βs pushes reach βs − O(βs²/n) distinct agents). "Every
// agent is activated by the end of Stage I" holds w.h.p. only
// asymptotically: at n = 8192 with the calibrated constants about a
// quarter of the runs leave 1–3 agents behind. It is checked as a rate
// over all seeds' agents: the 99% Wilson upper bound on the unactivated
// fraction must stay below 10⁻³ (about 8 agents per run).
func checkStageIEnvelopes(base uint64, seeds int) error {
	const n = 8192
	params := DefaultParams(n, 0.3)
	unactivated := 0
	for seed := base; seed < base+uint64(seeds); seed++ {
		p, err := NewBroadcast(params, channel.One)
		if err != nil {
			return err
		}
		if _, err := sim.Run(sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: seed, MaxRounds: params.StageIRounds(),
		}, p); err != nil {
			return err
		}
		tel := p.Telemetry()
		if len(tel.StageI) != params.T+2 {
			return fmt.Errorf("seed %d: %d Stage I phase stats, want %d", seed, len(tel.StageI), params.T+2)
		}
		x0 := tel.StageI[0].Activated
		if x0 < params.BetaS/3 || x0 > params.BetaS {
			return fmt.Errorf("seed %d: X0 = %d outside [βs/3, βs] = [%d, %d]", seed, x0, params.BetaS/3, params.BetaS)
		}
		prev := 0
		for i, st := range tel.StageI {
			if st.Activated < prev {
				return fmt.Errorf("seed %d: X_%d = %d decreased from %d", seed, i, st.Activated, prev)
			}
			if st.Activated != prev+st.NewlyActivated {
				return fmt.Errorf("seed %d phase %d: X inconsistency %d != %d + %d", seed, i, st.Activated, prev, st.NewlyActivated)
			}
			if st.NewlyCorrect > st.NewlyActivated {
				return fmt.Errorf("seed %d phase %d: Z > Y", seed, i)
			}
			prev = st.Activated
		}
		// Upper envelope of Claim 2.4 (holds with probability 1).
		bound := float64(x0)
		for i := 1; i <= params.T; i++ {
			bound *= float64(params.Beta) + 1
			if got := float64(tel.StageI[i].Activated); got > bound {
				return fmt.Errorf("seed %d: X_%d = %v exceeds (β+1)^i·X0 = %v", seed, i, got, bound)
			}
		}
		unactivated += n - tel.ActivatedAfterStageI
	}
	if _, hi := stats.WilsonInterval(unactivated, seeds*n, 2.576); hi >= 1e-3 {
		return fmt.Errorf("%d of %d agents unactivated after Stage I over %d seeds: rate bound %.2g ≥ 10⁻³",
			unactivated, seeds*n, seeds, hi)
	}
	return nil
}

func TestStageIPositiveBias(t *testing.T) {
	// Lemma 2.3: the bias toward B after Stage I is positive w.h.p. —
	// check across seeds (each seed's bias is Ω(√(log n / n)) in theory;
	// we assert positivity, the experiment harness measures magnitude).
	const n, seeds = 2048, 6
	positive := 0
	for seed := uint64(0); seed < seeds; seed++ {
		_, p := runBroadcast(t, n, 0.3, seed, channel.One)
		if p.Telemetry().BiasAfterStageI > 0 {
			positive++
		}
	}
	if positive < seeds-1 {
		t.Fatalf("Stage I bias positive only %d/%d runs", positive, seeds)
	}
}

func TestStageIIBiasGrowsToUnanimity(t *testing.T) {
	const n = 1024
	res, p := runBroadcast(t, n, 0.3, 2, channel.One)
	tel := p.Telemetry()
	if len(tel.StageII) != p.Params().K+1 {
		t.Fatalf("expected %d Stage II stats, got %d", p.Params().K+1, len(tel.StageII))
	}
	// Bias should be weakly increasing in the large (allow Monte-Carlo
	// dips) and end at 1/2 (all correct).
	last := tel.StageII[len(tel.StageII)-1]
	if last.Correct != n {
		t.Errorf("final correct = %d, want %d (result: %+v)", last.Correct, n, res)
	}
	first := tel.StageII[0]
	if last.Bias() < first.Bias() {
		t.Errorf("bias decreased across Stage II: %v -> %v", first.Bias(), last.Bias())
	}
	for i, st := range tel.StageII {
		if st.Successful > n {
			t.Errorf("phase %d: successful %d > n", i, st.Successful)
		}
		// Claim 2.9: at least n/2 successful agents per phase (w.h.p.).
		if st.Successful < n/2 {
			t.Errorf("phase %d: only %d successful agents", i, st.Successful)
		}
	}
}

// sendRecorder wraps a Protocol and records the rounds in which each agent
// sent and first received.
type sendRecorder struct {
	*Protocol
	sends        map[int][]int // agent -> rounds in which it sent
	firstReceive map[int]int   // agent -> first round it accepted a message
	sendsByRound map[int]int   // round -> number of sends
}

func newSendRecorder(p *Protocol) *sendRecorder {
	return &sendRecorder{
		Protocol:     p,
		sends:        map[int][]int{},
		firstReceive: map[int]int{},
		sendsByRound: map[int]int{},
	}
}

func (s *sendRecorder) Send(a, round int) (channel.Bit, bool) {
	bit, ok := s.Protocol.Send(a, round)
	if ok {
		s.sends[a] = append(s.sends[a], round)
		s.sendsByRound[round]++
	}
	return bit, ok
}

func (s *sendRecorder) Receive(a int, bit channel.Bit, round int) {
	if _, seen := s.firstReceive[a]; !seen {
		s.firstReceive[a] = round
	}
	s.Protocol.Receive(a, bit, round)
}

// TestBreatheProperty checks the protocol's namesake rule: a non-source
// agent never transmits during the Stage I phase in which it was first
// contacted — it waits ("breathes") until the phase ends.
func TestBreatheProperty(t *testing.T) {
	const n = 2048
	p, err := NewBroadcast(DefaultParams(n, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	rec := newSendRecorder(p)
	if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 4}, rec); err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule()
	stageIEnd := sched.StageIEnd()
	for a, first := range rec.firstReceive { //breathe:order-ok each agent is asserted independently
		if a == 0 || first >= stageIEnd {
			continue
		}
		ref, _, _, _ := sched.At(first)
		// The activation phase spans [phaseStart, phaseEnd); the agent
		// must not send within it.
		for _, r := range rec.sends[a] {
			if r >= stageIEnd {
				break
			}
			rRef, _, _, _ := sched.At(r)
			if rRef == ref {
				t.Fatalf("agent %d sent in round %d inside its activation phase %v", a, r, ref)
			}
			if rRef.Stage == StageI && rRef.Index <= ref.Index {
				t.Fatalf("agent %d sent in phase %v at or before activation phase %v", a, rRef, ref)
			}
		}
	}
}

// TestSymmetricMessagePattern checks §1.3.4: with the randomness fixed,
// the pattern of who sends at what time is identical whether B = 0 or
// B = 1.
func TestSymmetricMessagePattern(t *testing.T) {
	const n = 512
	run := func(target channel.Bit) map[int]int {
		p, err := NewBroadcast(DefaultParams(n, 0.25), target)
		if err != nil {
			t.Fatal(err)
		}
		rec := newSendRecorder(p)
		if _, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.25), Seed: 11}, rec); err != nil {
			t.Fatal(err)
		}
		return rec.sendsByRound
	}
	pat1 := run(channel.One)
	pat0 := run(channel.Zero)
	if len(pat1) != len(pat0) {
		t.Fatalf("send-round sets differ: %d vs %d rounds with traffic", len(pat1), len(pat0))
	}
	for r, c1 := range pat1 { //breathe:order-ok each round is compared independently
		if pat0[r] != c1 {
			t.Fatalf("round %d: %d sends for B=1 but %d for B=0", r, c1, pat0[r])
		}
	}
}

func TestSetupPanicsOnWrongN(t *testing.T) {
	p, err := NewBroadcast(DefaultParams(100, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Setup with mismatched n did not panic")
		}
	}()
	p.Setup(99, rng.NewKey(1))
}

func TestOpinionBeforeSetup(t *testing.T) {
	p, err := NewBroadcast(DefaultParams(100, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Opinion(0); ok {
		t.Fatal("Opinion before Setup should report none")
	}
}

func TestBroadcastWithCrashes(t *testing.T) {
	// Robustness: 5% of non-source agents crash at start; the survivors
	// must still converge (crashed agents end undecided).
	const n = 1024
	params := DefaultParams(n, 0.3)
	p, err := NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	plan := sim.NewRandomCrashes(n, 0.05, 0, rng.NewKey(99), 0)
	res, err := sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 21, Failures: plan,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	alive := n - plan.NumCrashed()
	if res.Opinions[channel.One] < alive-alive/50 {
		t.Fatalf("only %d of %d alive agents correct", res.Opinions[channel.One], alive)
	}
}

func TestBroadcastWithMessageDrops(t *testing.T) {
	// Weak message-failure faults (§1.2): 10% uniform message loss slows
	// but must not break the protocol.
	const n = 1024
	p, err := NewBroadcast(DefaultParams(n, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 23, DropProb: 0.1,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CorrectFraction(channel.One); got < 0.99 {
		t.Fatalf("correct fraction %v under 10%% message loss", got)
	}
}

func TestBroadcastHeterogeneousNoise(t *testing.T) {
	// The model only promises flip probability ≤ 1/2 − ε; a channel that
	// is sometimes quieter can only help.
	const n = 1024
	eps := 0.3
	p, err := NewBroadcast(DefaultParams(n, eps), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		N: n, Channel: channel.NewHeterogeneous(0, 0.5-eps), Seed: 31,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.One) {
		t.Fatalf("heterogeneous noise broke broadcast: %+v", res)
	}
}

func TestBroadcastNoiseless(t *testing.T) {
	// ε = 1/2 (no noise) is the classical push-rumor-spreading regime.
	const n = 512
	p, err := NewBroadcast(DefaultParams(n, 0.5), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.Noiseless{}, Seed: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.One) {
		t.Fatalf("noiseless broadcast failed: %+v", res)
	}
}

// --- consensus ---

func TestConsensusConverges(t *testing.T) {
	const n = 1024
	params := DefaultParams(n, 0.3)
	// |A| comfortably above log n/ε² with a strong majority bias.
	sizeA := 4 * params.BetaS
	correct := sizeA * 3 / 4
	ok := 0
	const seeds = 6
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := NewConsensus(params, channel.One, correct, sizeA-correct)
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
		t.Fatalf("consensus succeeded %d/%d", ok, seeds)
	}
}

func TestConsensusFollowsMajorityNotLabel(t *testing.T) {
	// If the initial majority of A is opinion 0, the population must
	// converge to 0: flip the roles and check.
	const n = 1024
	params := DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	p, err := NewConsensus(params, channel.Zero, sizeA*3/4, sizeA/4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 7}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllCorrect(channel.Zero) {
		t.Fatalf("majority-0 consensus failed: %+v", res)
	}
}

func TestConsensusShorterThanBroadcast(t *testing.T) {
	// Starting from a large A skips early phases, so the run is shorter.
	const n = 4096
	params := DefaultParams(n, 0.3)
	b, err := NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConsensus(params, channel.One, 3*params.BetaS, params.BetaS)
	if err != nil {
		t.Fatal(err)
	}
	if c.Schedule().TotalRounds() >= b.Schedule().TotalRounds() {
		t.Errorf("consensus %d rounds >= broadcast %d",
			c.Schedule().TotalRounds(), b.Schedule().TotalRounds())
	}
}

func TestConsensusValidation(t *testing.T) {
	params := DefaultParams(100, 0.3)
	cases := []struct{ correct, wrong int }{
		{0, 0}, {-1, 5}, {5, -1}, {90, 20},
	}
	for _, c := range cases {
		if _, err := NewConsensus(params, channel.One, c.correct, c.wrong); err == nil {
			t.Errorf("NewConsensus(%d, %d) accepted", c.correct, c.wrong)
		}
	}
}

func TestConsensusMinorityBiasFailsSometimes(t *testing.T) {
	// With zero majority-bias the problem is unsolvable (there is no
	// majority to agree on): the final opinion should be split across
	// seeds rather than always the labelled target. This guards against
	// accidentally leaking the target into decisions.
	const n = 512
	params := DefaultParams(n, 0.3)
	sizeA := 2 * params.BetaS
	wins := 0
	const seeds = 10
	for seed := uint64(0); seed < seeds; seed++ {
		p, err := NewConsensus(params, channel.One, sizeA/2, sizeA/2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: seed}, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Opinions[channel.One] > res.Opinions[channel.Zero] {
			wins++
		}
	}
	if wins == 0 || wins == seeds {
		t.Fatalf("zero-bias consensus always resolved the same way (%d/%d) — suspicious", wins, seeds)
	}
}

func TestProtocolNames(t *testing.T) {
	b, _ := NewBroadcast(DefaultParams(100, 0.3), channel.One)
	if b.Name() != "breathe-broadcast" {
		t.Errorf("broadcast name %q", b.Name())
	}
	c, _ := NewConsensus(DefaultParams(100, 0.3), channel.One, 10, 5)
	if c.Name() != "breathe-consensus" {
		t.Errorf("consensus name %q", c.Name())
	}
	if b.Target() != channel.One {
		t.Error("Target accessor")
	}
}

func TestBiasAfterStageIMagnitude(t *testing.T) {
	// Lemma 2.3 predicts bias Ω(√(log n/n)). Average over seeds and
	// check the measured bias is at least that order.
	const n, seeds = 2048, 5
	sum := 0.0
	for seed := uint64(0); seed < seeds; seed++ {
		_, p := runBroadcast(t, n, 0.3, seed, channel.One)
		sum += p.Telemetry().BiasAfterStageI
	}
	avg := sum / seeds
	floor := 0.25 * math.Sqrt(math.Log2(n)/float64(n))
	if avg < floor {
		t.Fatalf("average Stage I bias %v below %v", avg, floor)
	}
}
