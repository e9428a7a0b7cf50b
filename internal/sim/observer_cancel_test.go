// Determinism of the serving hooks: attaching an observer, canceling at a
// round barrier and resubmitting, and re-arming a pooled engine with the
// per-run setters must all be invisible in the bits. These are the
// guarantees the breathed service (internal/service) is built on — an
// observed, streamed, canceled-and-retried run must equal a plain batch
// run exactly — so they are pinned here at the engine level, across
// serial and multi-worker sharded execution.
package sim_test

import (
	"hash/fnv"
	"testing"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// hookN matches the shard-determinism suite: eight tree buckets, so
// Shards ∈ {1, 8} schedules genuinely differently.
const hookN = 1 << 16

func hookFactory(t *testing.T) (sim.Config, func() sim.Protocol) {
	t.Helper()
	params := core.DefaultParams(hookN, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: hookN, Channel: channel.FromEpsilon(0.3), Seed: 99,
		AllowSelfMessages: true,
		// Deep enough into Stage II that sharded dense rounds execute.
		MaxRounds: params.StageIRounds() + 48,
	}
	return cfg, factory
}

// opinionHash condenses the final per-agent opinions.
func opinionHash(n int, p sim.Protocol) uint64 {
	h := fnv.New64a()
	var buf [2]byte
	for a := 0; a < n; a++ {
		bit, ok := p.Opinion(a)
		buf[0] = byte(bit)
		buf[1] = 0
		if ok {
			buf[1] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func runOnce(t *testing.T, cfg sim.Config, factory func() sim.Protocol) (sim.Result, uint64) {
	t.Helper()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := factory()
	res := e.Run(p)
	return res, opinionHash(cfg.N, p)
}

// TestObserverInvariance: a run with a busy observer — reading opinions
// and every engine accessor each round — is bit-identical to a plain run,
// for serial and multi-worker sharded execution. Observer hooks draw
// nothing from any RNG stream.
func TestObserverInvariance(t *testing.T) {
	cfg, factory := hookFactory(t)
	for _, shards := range []int{1, 8} {
		c := cfg
		c.Shards = shards
		plainRes, plainFP := runOnce(t, c, factory)

		observed := 0
		var pathsSeen sim.PathRounds
		o := c
		p := factory()
		o.Observer = func(round int, e *sim.Engine) {
			observed++
			// Touch everything an observer may touch.
			_ = e.N()
			_ = e.Round()
			_ = e.MessagesSent()
			_ = e.MessagesAccepted()
			_ = e.MessagesDropped()
			pathsSeen = e.Paths()
			if round%7 == 0 {
				_, _ = p.Opinion(round % e.N())
			}
		}
		eng, err := sim.NewEngine(o)
		if err != nil {
			t.Fatal(err)
		}
		obsRes := eng.Run(p)
		obsFP := opinionHash(c.N, p)

		if obsRes != plainRes {
			t.Fatalf("Shards=%d: observed run diverged:\n%+v\n%+v", shards, obsRes, plainRes)
		}
		if obsFP != plainFP {
			t.Fatalf("Shards=%d: observed run's final opinions diverged", shards)
		}
		if observed != plainRes.Rounds {
			t.Errorf("Shards=%d: observer ran %d times for %d rounds", shards, observed, plainRes.Rounds)
		}
		if pathsSeen != plainRes.Paths {
			t.Errorf("Shards=%d: observer-visible paths %+v != result paths %+v", shards, pathsSeen, plainRes.Paths)
		}
	}
}

// TestCancelResubmitInvariance: cancel a run mid-flight at a round
// barrier, then Reset the same engine and run the configuration again —
// the rerun must be bit-identical to a plain run on a fresh engine, and
// the canceled prefix must match the plain run's counters at that round.
func TestCancelResubmitInvariance(t *testing.T) {
	cfg, factory := hookFactory(t)
	for _, shards := range []int{1, 8} {
		c := cfg
		c.Shards = shards
		plainRes, plainFP := runOnce(t, c, factory)

		// Cancel deterministically after round 37 via an observer (the
		// observer runs at the barrier; the poll happens before the next
		// round starts).
		const stopAfter = 37
		cancelCh := make(chan struct{})
		canceled := c
		canceled.Cancel = cancelCh
		canceled.Observer = func(round int, e *sim.Engine) {
			if round == stopAfter {
				close(cancelCh)
			}
		}
		eng, err := sim.NewEngine(canceled)
		if err != nil {
			t.Fatal(err)
		}
		cres := eng.Run(factory())
		if !cres.Canceled {
			t.Fatalf("Shards=%d: run not canceled", shards)
		}
		if cres.Truncated {
			t.Errorf("Shards=%d: canceled run also marked truncated", shards)
		}
		if cres.Rounds != stopAfter+1 {
			t.Fatalf("Shards=%d: canceled after %d rounds, want %d", shards, cres.Rounds, stopAfter+1)
		}

		// Resubmit on the same engine, the service's reuse path: Reset
		// re-arms with the hook-free config.
		if err := eng.Reset(c); err != nil {
			t.Fatal(err)
		}
		p2 := factory()
		rres := eng.Run(p2)
		if rres != plainRes {
			t.Fatalf("Shards=%d: resubmitted run diverged:\n%+v\n%+v", shards, rres, plainRes)
		}
		if fp := opinionHash(c.N, p2); fp != plainFP {
			t.Fatalf("Shards=%d: resubmitted run's final opinions diverged", shards)
		}
	}
}

// TestCancelPrefixMatchesPlainRun: the executed prefix of a canceled run
// carries exactly the counters the plain run had at the same barrier —
// polling the cancel channel consumes no randomness.
func TestCancelPrefixMatchesPlainRun(t *testing.T) {
	cfg, factory := hookFactory(t)
	const stopAfter = 29

	// Record the plain run's counters at the barrier after round 29.
	var wantSent, wantAccepted int64
	probe := cfg
	probe.Observer = func(round int, e *sim.Engine) {
		if round == stopAfter {
			wantSent = e.MessagesSent()
			wantAccepted = e.MessagesAccepted()
		}
	}
	eng, err := sim.NewEngine(probe)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(factory())

	cancelCh := make(chan struct{})
	canceled := cfg
	canceled.Cancel = cancelCh
	canceled.Observer = func(round int, e *sim.Engine) {
		if round == stopAfter {
			close(cancelCh)
		}
	}
	cres, err := sim.Run(canceled, factory())
	if err != nil {
		t.Fatal(err)
	}
	if !cres.Canceled || cres.Rounds != stopAfter+1 {
		t.Fatalf("canceled at %d rounds (canceled=%v), want %d", cres.Rounds, cres.Canceled, stopAfter+1)
	}
	if cres.MessagesSent != wantSent || cres.MessagesAccepted != wantAccepted {
		t.Errorf("canceled prefix counters (%d sent, %d accepted) != plain run at same barrier (%d, %d)",
			cres.MessagesSent, cres.MessagesAccepted, wantSent, wantAccepted)
	}
}

// TestPathRoundsAccounting: the per-regime round counts partition the
// executed rounds and name the regimes, never the collection mechanism —
// per-agent collection (simtest.PerAgent) books exactly the bulk run's
// counters — and a protocol without accumulators speaks in scatter
// rounds only.
func TestPathRoundsAccounting(t *testing.T) {
	params := core.DefaultParams(4096, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := sim.Config{N: 4096, Channel: channel.FromEpsilon(0.3), Seed: 11, AllowSelfMessages: true}

	res, err := sim.Run(base, factory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.PerAgent != 0 {
		t.Errorf("bulk protocol counted %d per-agent rounds", res.Paths.PerAgent)
	}
	if res.Paths.Total() != int64(res.Rounds) {
		t.Errorf("batched paths don't partition rounds: %+v vs %d", res.Paths, res.Rounds)
	}
	// Stage I speaks in scatter rounds, Stage II in tree rounds.
	if res.Paths.PerMessage == 0 || res.Paths.Dense+res.Paths.Sharded+res.Paths.Sparse == 0 {
		t.Errorf("broadcast ran no scatter or no tree rounds: %+v", res.Paths)
	}
	if res.Paths.Primary() != "dense" {
		t.Errorf("primary = %q, want dense", res.Paths.Primary())
	}

	pres, err := sim.Run(base, simtest.PerAgent(factory()))
	if err != nil {
		t.Fatal(err)
	}
	if pres.Paths != res.Paths {
		t.Errorf("per-agent collection paths %+v != bulk %+v", pres.Paths, res.Paths)
	}

	// A protocol stated only by its per-agent rules has no accumulators:
	// every speaking round is a scatter round.
	nres, err := sim.Run(base, simtest.PerAgent(&everyOther{rounds: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if nres.Paths != (sim.PathRounds{PerMessage: 5, Quiet: 5}) || nres.Paths.Primary() != "per-message" {
		t.Errorf("plain protocol paths: %+v (primary %q), want per-message:5 quiet:5", nres.Paths, nres.Paths.Primary())
	}

	// The Sharded threshold at its boundary: all-senders tree rounds run
	// Dense one agent below shardMinN and Sharded from it on.
	for _, c := range []struct {
		n    int
		want sim.PathRounds
	}{
		{sim.ShardMinN - 1, sim.PathRounds{Dense: 3}},
		{sim.ShardMinN, sim.PathRounds{Sharded: 3}},
	} {
		cfg := sim.Config{N: c.n, Channel: channel.FromEpsilon(0.3), Seed: 11, AllowSelfMessages: true}
		sres, err := sim.Run(cfg, sim.NewBulkChatter(3))
		if err != nil {
			t.Fatal(err)
		}
		if sres.Paths != c.want {
			t.Errorf("n = %d all-senders paths %+v, want %+v", c.n, sres.Paths, c.want)
		}
	}

	// The async protocols' dilated schedule has genuinely quiescent
	// rounds (no live senders); those must be counted as quiet.
	D := 2 * 12
	ap, err := async.NewKnownOffsets(params, channel.One, D)
	if err != nil {
		t.Fatal(err)
	}
	res, err = sim.Run(base, ap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.Quiet == 0 {
		t.Error("async dilation gaps produced no quiet rounds")
	}
	if res.Paths.Total() != int64(res.Rounds) {
		t.Errorf("async paths don't partition rounds: %+v vs %d", res.Paths, res.Rounds)
	}
}

// everyOther is a minimal protocol stated by its per-agent rules only:
// agent 0 pushes a one in even rounds and is silent in odd ones.
type everyOther struct{ rounds int }

func (p *everyOther) Name() string       { return "every-other" }
func (p *everyOther) Setup(int, rng.Key) {}
func (p *everyOther) Send(a, round int) (channel.Bit, bool) {
	return channel.One, a == 0 && round%2 == 0
}
func (p *everyOther) Receive(int, channel.Bit, int)   {}
func (p *everyOther) EndRound(int)                    {}
func (p *everyOther) Done(round int) bool             { return round >= p.rounds }
func (p *everyOther) Opinion(int) (channel.Bit, bool) { return 0, false }
