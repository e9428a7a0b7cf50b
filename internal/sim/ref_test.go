package sim_test

// refRun is the executable definition of the Flip model (paper §1.3.2)
// that the engine's sampling regimes are checked against: the minimal
// per-agent round loop, with no batching, no addressing and no shortcut.
// Every round it asks every live agent whether it sends; each message
// picks a uniformly random recipient (excluding the sender unless
// AllowSelfMessages), a receiver hit by several messages keeps one chosen
// uniformly by reservoir sampling, and every accepted bit passes through
// Channel.Transmit. Draws come from rng.New(seed)'s three Split streams:
// recipients, drops and collisions from the first, noise from the
// second, the protocol's sequential stream the third.
//
// The engine's regimes sample the same law from addressed draws, so they
// agree with refRun in distribution, not draw for draw; the
// *MatchesPerAgentStatistically tests compare the two. refRun itself is
// pinned draw for draw by TestGoldenBroadcastRunPerAgent.

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

func refRun(cfg sim.Config, p sim.Protocol) sim.Result {
	n := cfg.N
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds
	}
	root := rng.New(cfg.Seed)
	engineRNG := root.Split()
	channelRNG := root.Split()
	protoRNG := root.Split()
	if kp, ok := p.(sim.KeyedProtocol); ok {
		kp.SetDrawKey(rng.NewKey(cfg.Seed))
	}
	p.Setup(n, protoRNG)

	inBit := make([]channel.Bit, n)
	inCount := make([]int32, n)
	crashed := func(a, round int) bool {
		return cfg.Failures != nil && cfg.Failures.Crashed(a, round)
	}
	res := sim.Result{Protocol: p.Name()}
	round := 0
	for ; round < maxRounds && !p.Done(round); round++ {
		for a := 0; a < n; a++ {
			if crashed(a, round) {
				continue
			}
			bit, ok := p.Send(a, round)
			if !ok {
				continue
			}
			res.MessagesSent++
			if cfg.DropProb > 0 && engineRNG.Bernoulli(cfg.DropProb) {
				res.MessagesDropped++
				continue
			}
			var dst int
			if cfg.AllowSelfMessages {
				dst = engineRNG.Intn(n)
			} else if dst = engineRNG.Intn(n - 1); dst >= a {
				dst++
			}
			// Reservoir accept-one: the k-th arrival replaces the kept
			// message with probability 1/k.
			inCount[dst]++
			if inCount[dst] == 1 || engineRNG.Uint64n(uint64(inCount[dst])) == 0 {
				inBit[dst] = bit
			}
		}
		for a := 0; a < n; a++ {
			c := inCount[a]
			if c == 0 {
				continue
			}
			inCount[a] = 0
			res.MessagesDropped += int64(c - 1)
			if crashed(a, round) {
				res.MessagesDropped++
				continue
			}
			res.MessagesAccepted++
			p.Receive(a, cfg.Channel.Transmit(inBit[a], channelRNG), round)
		}
		p.EndRound(round)
	}
	res.Rounds = round
	res.Truncated = round >= maxRounds && !p.Done(round)
	res.Paths.PerAgent = int64(round)
	for a := 0; a < n; a++ {
		if b, ok := p.Opinion(a); ok {
			res.Opinions[b]++
		} else {
			res.Undecided++
		}
	}
	return res
}

// TestGoldenBroadcastRunPerAgent pins refRun draw for draw: the seed
// repository's execution of the paper's broadcast at n = 1024, ε = 0.3,
// seed 1. The round count is the protocol's schedule; the message count
// is a function of the recipient and collision draws alone (whether an
// agent sends never depends on opinion values), so it pins the
// reference's recipient stream.
func TestGoldenBroadcastRunPerAgent(t *testing.T) {
	p, err := core.NewBroadcast(core.DefaultParams(1024, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	res := refRun(sim.Config{N: 1024, Channel: channel.FromEpsilon(0.3), Seed: 1}, p)
	if res.Rounds != 1236 {
		t.Errorf("Rounds = %d, want 1236", res.Rounds)
	}
	if res.MessagesSent != 856013 {
		t.Errorf("MessagesSent = %d, want 856013", res.MessagesSent)
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Errorf("conservation violated: %+v", res)
	}
	if !res.AllCorrect(channel.One) {
		t.Error("expected unanimity")
	}
}

// meanAccepted returns the mean MessagesAccepted of a bulk chatter run
// over seeds 0..seeds−1, on the engine or, with ref, on refRun.
func meanAccepted(t *testing.T, cfg sim.Config, rounds, seeds int, ref bool, plan func(seed uint64) sim.FailurePlan) float64 {
	t.Helper()
	var sum int64
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		c := cfg
		c.Seed = seed
		if plan != nil {
			c.Failures = plan(seed)
		}
		p := sim.NewBulkChatter(rounds)
		var res sim.Result
		if ref {
			res = refRun(c, p)
		} else {
			var err error
			if res, err = sim.Run(c, p); err != nil {
				t.Fatal(err)
			}
		}
		if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
			t.Fatalf("seed %d (ref=%v): conservation violated: %+v", seed, ref, res)
		}
		sum += res.MessagesAccepted
	}
	return float64(sum) / float64(seeds)
}

// TestBatchedMatchesPerAgentStatistically: the scatter regime (without
// self-messages) and the tree regime (with them) produce the reference's
// acceptance statistics — across seeds the mean accepted counts agree
// within a few standard errors.
func TestBatchedMatchesPerAgentStatistically(t *testing.T) {
	const n, rounds, seeds = 256, 120, 12
	for _, self := range []bool{false, true} {
		cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Kernel: sim.KernelBatched, AllowSelfMessages: self}
		ref := meanAccepted(t, cfg, rounds, seeds, true, nil)
		got := meanAccepted(t, cfg, rounds, seeds, false, nil)
		if math.Abs(got-ref)/ref > 0.01 {
			t.Fatalf("self=%v: batched accepted mean %v deviates from the reference's %v", self, got, ref)
		}
	}
}

// TestBatchedMidRunCrashMatchesPerAgentStatistically: RandomCrashes
// kicking in mid-run — the sender filter and receiver mask change at the
// crash round — leave the acceptance statistics equal to the reference's.
func TestBatchedMidRunCrashMatchesPerAgentStatistically(t *testing.T) {
	const n, rounds, seeds = 256, 120, 12
	plan := func(seed uint64) sim.FailurePlan {
		return sim.NewRandomCrashes(n, 0.2, 40, rng.New(900+seed), 0)
	}
	for _, self := range []bool{false, true} {
		cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Kernel: sim.KernelBatched, AllowSelfMessages: self}
		ref := meanAccepted(t, cfg, rounds, seeds, true, plan)
		got := meanAccepted(t, cfg, rounds, seeds, false, plan)
		if math.Abs(got-ref)/ref > 0.01 {
			t.Fatalf("self=%v: batched accepted mean %v deviates from the reference's %v under crashes", self, got, ref)
		}
	}
}

// TestShardedMatchesPerAgentStatistically: parallel tree rounds (three
// virtual shards) produce the reference's acceptance statistics.
func TestShardedMatchesPerAgentStatistically(t *testing.T) {
	const rounds, seeds = 12, 6
	n := sim.ShardTestN
	cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Kernel: sim.KernelBatched, AllowSelfMessages: true, Shards: 3}
	ref := meanAccepted(t, cfg, rounds, seeds, true, nil)
	got := meanAccepted(t, cfg, rounds, seeds, false, nil)
	if math.Abs(got-ref)/ref > 0.005 {
		t.Fatalf("sharded accepted mean %v deviates from the reference's %v", got, ref)
	}
}
