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
	"math"
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
			_ = e.MessagesSent()
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
// is exactly the plain run stopped at the same barrier by MaxRounds —
// counters, path counts and final opinions — so polling the cancel
// channel consumes no randomness.
func TestCancelPrefixMatchesPlainRun(t *testing.T) {
	cfg, factory := hookFactory(t)
	const stopAfter = 29

	cancelCh := make(chan struct{})
	canceled := cfg
	canceled.Cancel = cancelCh
	canceled.Observer = func(round int, e *sim.Engine) {
		if round == stopAfter {
			close(cancelCh)
		}
	}
	cres, cfp := runOnce(t, canceled, factory)
	if !cres.Canceled || cres.Rounds != stopAfter+1 {
		t.Fatalf("canceled at %d rounds (canceled=%v), want %d", cres.Rounds, cres.Canceled, stopAfter+1)
	}
	checkCanceledPrefix(t, cfg, factory, cres, cfp)
}

// checkCanceledPrefix asserts that a canceled run of cfg (Result cres,
// opinion fingerprint cfp) equals the uncanceled run truncated by
// MaxRounds at the barrier where the cancel was honoured.
func checkCanceledPrefix(t *testing.T, cfg sim.Config, factory func() sim.Protocol, cres sim.Result, cfp uint64) {
	t.Helper()
	truncated := cfg
	truncated.MaxRounds = cres.Rounds
	want, wfp := runOnce(t, truncated, factory)
	if !want.Truncated {
		t.Fatalf("reference run finished within %d rounds; the cancel landed after Done", cres.Rounds)
	}
	want.Truncated, want.Canceled = false, true
	if cres != want {
		t.Errorf("canceled prefix diverged from the plain run at the same barrier:\n%+v\n%+v", cres, want)
	}
	if cfp != wfp {
		t.Error("canceled prefix's opinions diverged from the plain run at the same barrier")
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
	nres, err := sim.Run(base, simtest.PerAgent(&periodic{period: 2, total: 10, senders: 1}))
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

// periodic is a minimal protocol stated by its per-agent rules only: its
// first `senders` agents push a one on every round that is a multiple of
// period, everyone is silent in between, and it is done at total — so
// its PathRounds partition is known in closed form.
type periodic struct{ period, total, senders int }

func (p *periodic) Name() string       { return "periodic" }
func (p *periodic) Setup(int, rng.Key) {}
func (p *periodic) Send(a, round int) (channel.Bit, bool) {
	return channel.One, round%p.period == 0 && a < p.senders
}
func (p *periodic) Receive(int, channel.Bit, int)     {}
func (p *periodic) EndRound(int)                      {}
func (p *periodic) Done(round int) bool               { return round >= p.total }
func (p *periodic) Opinion(a int) (channel.Bit, bool) { return channel.One, a < p.senders }

// TestKeyedNonBulkQuietAccounting pins the PathRounds partition of a
// protocol without accumulators: rounds with zero live senders are
// Quiet, rounds with senders are PerMessage — in closed form for the
// periodic protocol, also when the crash plan's round or MaxRounds falls
// inside a quiet span. (The retired per-agent collector once credited
// quiet rounds to its own counter; this is the regression pin.)
func TestKeyedNonBulkQuietAccounting(t *testing.T) {
	for _, tc := range []struct {
		name      string
		p         periodic
		mutate    func(*sim.Config)
		rounds    int
		truncated bool
		sent      int64
		paths     sim.PathRounds
	}{
		// Rounds 0, 5, ..., 45 carry three senders; the other 40 are quiet.
		{"plain", periodic{5, 50, 3}, func(*sim.Config) {}, 50, false, 10 * 3, sim.PathRounds{PerMessage: 10, Quiet: 40}},
		// Two of the three senders crash at round 23, between the active
		// rounds 20 and 30: rounds 0, 10, 20 carry three messages, rounds
		// 30, ..., 90 one.
		{"crash-mid-span", periodic{10, 100, 3}, func(c *sim.Config) { c.Failures = sim.NewCrashAt(23, 0, 1) },
			100, false, 3*3 + 7*1, sim.PathRounds{PerMessage: 10, Quiet: 90}},
		// MaxRounds stops the run in the quiet span after round 30.
		{"maxrounds-mid-span", periodic{10, 100, 3}, func(c *sim.Config) { c.MaxRounds = 37 },
			37, true, 4 * 3, sim.PathRounds{PerMessage: 4, Quiet: 33}},
	} {
		cfg := sim.Config{N: 64, Channel: channel.FromEpsilon(0.3), Seed: 17, AllowSelfMessages: true}
		tc.mutate(&cfg)
		p := tc.p
		res, err := sim.Run(cfg, simtest.PerAgent(&p))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != tc.rounds || res.Truncated != tc.truncated || res.Canceled {
			t.Errorf("%s: run shape %+v, want %d rounds, truncated=%v", tc.name, res, tc.rounds, tc.truncated)
		}
		if res.Paths != tc.paths {
			t.Errorf("%s: paths %+v, want %+v", tc.name, res.Paths, tc.paths)
		}
		if res.MessagesSent != tc.sent {
			t.Errorf("%s: %d messages sent, want %d", tc.name, res.MessagesSent, tc.sent)
		}
	}
}

// TestQuietSpanSkipEquivalence: a run with an observer attached equals
// the plain run when the crash plan's round or MaxRounds falls inside a
// quiet span, and neither run skips a span: every round executes whether
// or not anything watches it.
func TestQuietSpanSkipEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"plain", func(*sim.Config) {}},
		{"crash-mid-gap", func(c *sim.Config) {
			// Two of the three senders die in the middle of a quiet gap.
			c.Failures = sim.NewCrashAt(23, 0, 1)
		}},
		{"maxrounds-mid-gap", func(c *sim.Config) {
			c.MaxRounds = 37 // truncates inside a quiet gap
		}},
	}
	for _, tc := range cases {
		results := make([]sim.Result, 2)
		for i, observed := range []bool{false, true} {
			cfg := sim.Config{N: 64, Channel: channel.FromEpsilon(0.3), Seed: 17, AllowSelfMessages: true}
			tc.mutate(&cfg)
			calls := 0
			if observed {
				cfg.Observer = func(int, *sim.Engine) { calls++ }
			}
			e, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = e.Run(simtest.PerAgent(&periodic{period: 10, total: 100, senders: 3}))
			if spans := e.QuietSpans(); spans != 0 {
				t.Errorf("%s: observed=%v run skipped %d spans", tc.name, observed, spans)
			}
			if observed && calls != results[i].Rounds {
				t.Errorf("%s: observer called %d times for %d rounds", tc.name, calls, results[i].Rounds)
			}
		}
		if results[0] != results[1] {
			t.Errorf("%s: observed run diverged:\n%+v\n%+v", tc.name, results[0], results[1])
		}
		if results[0].Paths.Quiet == 0 || results[0].Paths.Total() != int64(results[0].Rounds) {
			t.Errorf("%s: paths %+v do not cover %d rounds with quiet ones among them",
				tc.name, results[0].Paths, results[0].Rounds)
		}
	}
}

// TestPrimaryPathQuiet pins the PathRounds.Primary convention the
// api.RunResponse.PrimaryPath doc promises: "quiet" names a run in which
// no round carried a message — the zero-round run and the all-quiet run —
// and quiet rounds never outvote an executing path.
func TestPrimaryPathQuiet(t *testing.T) {
	if got := (sim.PathRounds{}).Primary(); got != "quiet" {
		t.Errorf(`zero PathRounds.Primary() = %q, want "quiet"`, got)
	}
	if got := (sim.PathRounds{Quiet: 900}).Primary(); got != "quiet" {
		t.Errorf(`all-quiet Primary() = %q, want "quiet"`, got)
	}
	if got := (sim.PathRounds{Quiet: 900, PerMessage: 1}).Primary(); got != "per-message" {
		t.Errorf(`Primary() = %q, want quiet rounds ignored`, got)
	}

	// An all-quiet execution: the protocol breathes for its whole
	// schedule and never sends.
	res, err := sim.Run(sim.Config{N: 64, Channel: channel.FromEpsilon(0.3), Seed: 17},
		simtest.PerAgent(&periodic{period: 10, total: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 0 {
		t.Fatalf("senders=0 run sent %d messages", res.MessagesSent)
	}
	if got := res.Paths.Primary(); got != "quiet" {
		t.Errorf(`all-quiet run Primary() = %q, want "quiet"`, got)
	}
	if res.Paths.Total() != int64(res.Rounds) {
		t.Errorf("paths %+v do not cover %d rounds", res.Paths, res.Rounds)
	}
}

// selfSyncFactory builds §3.2 self-synchronizing broadcasts at n with the
// standard prelude L = 3·⌈log₂ n⌉: a schedule whose dilation gaps are
// quiet spans (rounds with no live sender).
func selfSyncFactory(t *testing.T, n int) (sim.Config, func() sim.Protocol) {
	t.Helper()
	params := core.DefaultParams(n, 0.3)
	L := 3 * int(math.Ceil(math.Log2(float64(n))))
	factory := func() sim.Protocol {
		p, err := async.NewSelfSync(params, channel.One, L)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: 7, AllowSelfMessages: true, Shards: 1}
	return cfg, factory
}

// TestObserverSeesEveryRound: on a self-sync run the observer is called
// exactly once per round 0..Rounds−1, in order, quiet rounds included,
// and the observed run equals the unobserved one.
func TestObserverSeesEveryRound(t *testing.T) {
	cfg, factory := selfSyncFactory(t, 1024)
	plain, plainFP := runOnce(t, cfg, factory)

	var seen []int
	var quietSeen int64
	observed := cfg
	observed.Observer = func(round int, e *sim.Engine) {
		seen = append(seen, round)
		quietSeen = e.Paths().Quiet
	}
	res, fp := runOnce(t, observed, factory)
	if res != plain || fp != plainFP {
		t.Fatalf("observed run diverged:\n%+v\n%+v", res, plain)
	}
	if res.Paths.Quiet == 0 {
		t.Fatalf("self-sync run had no quiet rounds: %+v", res.Paths)
	}
	if len(seen) != res.Rounds {
		t.Fatalf("observer called %d times for %d rounds", len(seen), res.Rounds)
	}
	for i, round := range seen {
		if round != i {
			t.Fatalf("call %d observed round %d", i, round)
		}
	}
	if quietSeen != res.Paths.Quiet {
		t.Errorf("observer saw %d quiet rounds, the run counted %d", quietSeen, res.Paths.Quiet)
	}
}

// cancelInEndRound closes cancel during the given round's EndRound, while
// that round is still executing.
type cancelInEndRound struct {
	sim.Protocol
	round  int
	cancel chan struct{}
}

func (c *cancelInEndRound) EndRound(round int) {
	c.Protocol.EndRound(round)
	if round == c.round {
		close(c.cancel)
	}
}

// TestQuietSpanCancelInsideSpan: a cancel that lands inside a quiet span
// of a self-sync run — during the EndRound of a quiet round whose
// neighbours are quiet too — is honoured at the next barrier, and the
// executed prefix matches the uncanceled run's.
func TestQuietSpanCancelInsideSpan(t *testing.T) {
	cfg, factory := selfSyncFactory(t, 1024)

	// Find a quiet round strictly inside a quiet span.
	var quiet []bool
	var last int64
	observed := cfg
	observed.Observer = func(round int, e *sim.Engine) {
		q := e.Paths().Quiet
		quiet = append(quiet, q > last)
		last = q
	}
	runOnce(t, observed, factory)
	landAt := -1
	for r := 1; r+1 < len(quiet); r++ {
		if quiet[r-1] && quiet[r] && quiet[r+1] {
			landAt = r
			break
		}
	}
	if landAt < 0 {
		t.Fatal("self-sync run has no quiet span of three rounds")
	}

	cancel := make(chan struct{})
	canceled := cfg
	canceled.Cancel = cancel
	cancelAt := func() sim.Protocol {
		return &cancelInEndRound{Protocol: factory(), round: landAt, cancel: cancel}
	}
	cres, cfp := runOnce(t, canceled, cancelAt)
	if !cres.Canceled || cres.Truncated || cres.Rounds != landAt+1 {
		t.Fatalf("cancel in quiet round %d: %d rounds (canceled=%v truncated=%v), want %d",
			landAt, cres.Rounds, cres.Canceled, cres.Truncated, landAt+1)
	}
	checkCanceledPrefix(t, cfg, factory, cres, cfp)
}
