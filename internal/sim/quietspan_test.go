// Quiet-span skipping at the engine level, pinned against a purpose-built
// non-bulk protocol whose activity pattern — and therefore its exact
// PathRounds partition — is known in closed form. The async protocols
// exercise the same machinery end-to-end in internal/async and
// internal/api; this file pins the engine semantics themselves: the
// Quiet/PerAgent accounting split, skip-on/off bit-identity, span capping
// by observers, the crash plan's round and MaxRounds, cancellation inside
// a skipped span, and the conservative fallbacks (no capability, an
// observer without a declared cadence).
package sim_test

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// spanProto sends from its first `senders` agents on every round that is
// a multiple of period, and is done at total. Between multiples it is
// inert, so NextActive is the next multiple (clamped to total) — the
// QuietSpanner contract in closed form. hook, when set, observes every
// NextActive call; the cancellation test uses it to cancel mid-span.
type spanProto struct {
	period  int
	total   int
	senders int
	hook    func(g int)
}

func (p *spanProto) Name() string                  { return "span-test" }
func (p *spanProto) Setup(int, rng.Key)            {}
func (p *spanProto) Receive(int, channel.Bit, int) {}
func (p *spanProto) EndRound(int)                  {}
func (p *spanProto) Done(g int) bool               { return g >= p.total }

func (p *spanProto) Send(a, round int) (channel.Bit, bool) {
	if round%p.period == 0 && a < p.senders {
		return channel.One, true
	}
	return 0, false
}

func (p *spanProto) Opinion(a int) (channel.Bit, bool) {
	return channel.One, a < p.senders
}

// NextActive implements sim.QuietSpanner.
func (p *spanProto) NextActive(g int) int {
	if p.hook != nil {
		p.hook(g)
	}
	if g >= p.total {
		return g
	}
	next := ((g + p.period - 1) / p.period) * p.period
	if next > p.total {
		next = p.total
	}
	return next
}

// disableSkip installs an observer without a declared cadence, which
// makes the engine execute every round: the route to a round-by-round
// reference run.
func disableSkip(cfg *sim.Config) {
	cfg.Observer = func(int, *sim.Engine) {}
}

func spanConfig(n int) sim.Config {
	return sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 17,
		AllowSelfMessages: true,
	}
}

func runSpan(t *testing.T, cfg sim.Config, p sim.Protocol) (sim.Result, int64) {
	t.Helper()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(p)
	return res, e.QuietSpans()
}

// TestKeyedNonBulkQuietAccounting pins the PathRounds partition of a
// non-bulk protocol under the keyed schedule: rounds with zero senders
// are Quiet, rounds with senders are PerAgent — in closed form for the
// periodic protocol, with and without span skipping. (The keyed
// non-bulk path once credited quiet rounds to PerAgent; this is the
// regression pin.)
func TestKeyedNonBulkQuietAccounting(t *testing.T) {
	const period, total, senders = 5, 50, 3
	for _, noskip := range []bool{false, true} {
		cfg := spanConfig(64)
		if noskip {
			disableSkip(&cfg)
		}
		res, spans := runSpan(t, cfg, &spanProto{period: period, total: total, senders: senders})
		if res.Rounds != total || res.Truncated || res.Canceled {
			t.Fatalf("noskip=%v: unexpected run shape %+v", noskip, res)
		}
		// Rounds 0, 5, ..., 45 carry senders; the other 40 are quiet.
		want := sim.PathRounds{PerAgent: 10, Quiet: 40}
		if res.Paths != want {
			t.Errorf("noskip=%v: paths %+v, want %+v", noskip, res.Paths, want)
		}
		if res.MessagesSent != 10*senders {
			t.Errorf("noskip=%v: %d messages sent, want %d", noskip, res.MessagesSent, 10*senders)
		}
		if noskip && spans != 0 {
			t.Errorf("unskipped run skipped %d spans", spans)
		}
		if !noskip && spans == 0 {
			t.Error("skip-enabled run skipped no spans")
		}
	}
}

// TestQuietSpanSkipEquivalence: skip on and off produce identical
// Results across the conservativeness-relevant configurations — a crash
// boundary mid-gap, MaxRounds truncation mid-gap, and the plain run.
func TestQuietSpanSkipEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"plain", func(*sim.Config) {}},
		{"crash-mid-gap", func(c *sim.Config) {
			// Two of the three senders die in the middle of a quiet gap;
			// the plan's round caps the span there.
			c.Failures = sim.NewCrashAt(23, 0, 1)
		}},
		{"maxrounds-mid-gap", func(c *sim.Config) {
			c.MaxRounds = 37 // truncates inside a quiet gap
		}},
	}
	for _, tc := range cases {
		results := make([]sim.Result, 2)
		spans := make([]int64, 2)
		for i, noskip := range []bool{false, true} {
			cfg := spanConfig(64)
			tc.mutate(&cfg)
			if noskip {
				disableSkip(&cfg)
			}
			results[i], spans[i] = runSpan(t, cfg, &spanProto{period: 10, total: 100, senders: 3})
		}
		if results[0] != results[1] {
			t.Errorf("%s: skipped run diverged:\n%+v\n%+v", tc.name, results[0], results[1])
		}
		if spans[0] == 0 {
			t.Errorf("%s: skip-enabled run skipped no spans", tc.name)
		}
		if spans[1] != 0 {
			t.Errorf("%s: unskipped run skipped %d spans", tc.name, spans[1])
		}
	}
}

// TestQuietSpanCancelInsideSpan: a cancel that lands while the engine is
// inside a skipped span is honoured at the span's end barrier — the same
// barrier an unskipped run would have reached with these counters. The
// protocol's NextActive hook closes the cancel channel mid-run, i.e.
// during the skip decision itself.
func TestQuietSpanCancelInsideSpan(t *testing.T) {
	const period, total, senders = 10, 100, 3
	cancel := make(chan struct{})
	closed := false
	var closedAt int
	p := &spanProto{period: period, total: total, senders: senders}
	p.hook = func(g int) {
		if !closed && g > 50 {
			closed = true
			closedAt = g
			close(cancel)
		}
	}
	cfg := spanConfig(64)
	cfg.Cancel = cancel
	res, spans := runSpan(t, cfg, p)

	if !closed {
		t.Fatal("hook never fired — no spans were consulted")
	}
	if !res.Canceled {
		t.Fatalf("run not canceled: %+v", res)
	}
	if spans == 0 {
		t.Fatal("no spans skipped")
	}
	// The cancel was honoured exactly at the end of the span being
	// skipped when it landed: the next active round after closedAt.
	wantRounds := ((closedAt + period - 1) / period) * period
	if res.Rounds != wantRounds {
		t.Errorf("canceled at round %d, want span-end barrier %d (hook at g=%d)",
			res.Rounds, wantRounds, closedAt)
	}
	// Counters cover exactly the executed prefix: one send per sender per
	// active round strictly below Rounds.
	activeBelow := int64((res.Rounds + period - 1) / period)
	if res.MessagesSent != activeBelow*senders {
		t.Errorf("%d messages sent in %d rounds, want %d", res.MessagesSent, res.Rounds, activeBelow*senders)
	}
}

// TestQuietSpanObserverCapping: an Observer with a declared ObserverEvery
// caps spans at its due rounds and sees identical samples with skipping
// on and off; an Observer without the declaration disables skipping
// entirely.
func TestQuietSpanObserverCapping(t *testing.T) {
	const period, total, senders, every = 10, 100, 3, 15
	type sample struct {
		round int
		sent  int64
	}
	// The observer acts on due rounds only and counts every call; the
	// undeclared run is the round-by-round reference.
	run := func(declare bool) ([]sample, int, sim.Result, int64) {
		var samples []sample
		calls := 0
		cfg := spanConfig(64)
		if declare {
			cfg.ObserverEvery = every
		}
		cfg.Observer = func(round int, e *sim.Engine) {
			calls++
			if round%every != 0 {
				return
			}
			samples = append(samples, sample{round, e.MessagesSent()})
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(&spanProto{period: period, total: total, senders: senders})
		return samples, calls, res, e.QuietSpans()
	}

	onSamples, _, onRes, onSpans := run(true)
	offSamples, offCalls, offRes, offSpans := run(false)
	if onRes != offRes {
		t.Errorf("observed runs diverged:\n%+v\n%+v", onRes, offRes)
	}
	if onSpans == 0 {
		t.Error("declared observer still disabled skipping")
	}
	if offSpans != 0 {
		t.Errorf("undeclared observer: engine skipped %d spans", offSpans)
	}
	if offCalls != total {
		t.Errorf("undeclared observer saw %d rounds, want %d", offCalls, total)
	}
	if len(onSamples) != len(offSamples) {
		t.Fatalf("sample counts diverged: %d vs %d", len(onSamples), len(offSamples))
	}
	for i := range onSamples {
		if onSamples[i] != offSamples[i] {
			t.Errorf("sample %d diverged: %+v vs %+v", i, onSamples[i], offSamples[i])
		}
	}
	if len(onSamples) != (total-1)/every+1 {
		t.Errorf("%d due-round samples, want %d", len(onSamples), (total-1)/every+1)
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
	if got := (sim.PathRounds{Quiet: 900, PerAgent: 1}).Primary(); got != "per-agent" {
		t.Errorf(`Primary() = %q, want quiet rounds ignored`, got)
	}

	// An all-quiet execution: the protocol breathes for its whole
	// schedule and never sends.
	res, _ := runSpan(t, spanConfig(64), &spanProto{period: 10, total: 40, senders: 0})
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
