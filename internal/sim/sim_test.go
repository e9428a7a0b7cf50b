package sim

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// chatter is a trivial protocol for engine tests: every agent sends bit 1
// every round for a fixed number of rounds and remembers the last bit it
// accepted.
type chatter struct {
	rounds   int
	n        int
	last     []channel.Bit
	decided  []bool
	received []int
}

func (c *chatter) Name() string { return "chatter" }
func (c *chatter) Setup(n int, _ rng.Key) {
	c.n = n
	c.last = make([]channel.Bit, n)
	c.decided = make([]bool, n)
	c.received = make([]int, n)
}
func (c *chatter) Send(a, round int) (channel.Bit, bool) { return channel.One, true }
func (c *chatter) Receive(a int, b channel.Bit, round int) {
	c.last[a] = b
	c.decided[a] = true
	c.received[a]++
}
func (c *chatter) EndRound(round int) {}
func (c *chatter) Done(round int) bool {
	return round >= c.rounds
}
func (c *chatter) Opinion(a int) (channel.Bit, bool) {
	return c.last[a], c.decided[a]
}

// silent never sends; used to check zero-message accounting.
type silent struct{ chatter }

func (s *silent) Name() string                          { return "silent" }
func (s *silent) Send(a, round int) (channel.Bit, bool) { return 0, false }

func TestConfigValidation(t *testing.T) {
	valid := Config{N: 10, Channel: channel.Noiseless{}, Seed: 1}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"small population", func(c *Config) { c.N = 1 }},
		{"population past int32 ids", func(c *Config) { c.N = MaxN + 1 }},
		{"population 2^33", func(c *Config) { c.N = 1 << 33 }},
		{"nil channel", func(c *Config) { c.Channel = nil }},
		{"negative drop", func(c *Config) { c.DropProb = -0.1 }},
		{"drop of 1", func(c *Config) { c.DropProb = 1 }},
		{"NaN drop", func(c *Config) { c.DropProb = math.NaN() }},
		{"+Inf drop", func(c *Config) { c.DropProb = math.Inf(1) }},
		{"-Inf drop", func(c *Config) { c.DropProb = math.Inf(-1) }},
		{"negative rounds", func(c *Config) { c.MaxRounds = -1 }},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewEngine(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{N: 100, Channel: channel.FromEpsilon(0.2), Seed: 42}
	r1, err := Run(cfg, &chatter{rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Run(cfg, &chatter{rounds: 50})
	if r1 != r2 {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", r1, r2)
	}
	cfg.Seed = 43
	r3, _ := Run(cfg, &chatter{rounds: 50})
	if r1.Opinions == r3.Opinions && r1.MessagesAccepted == r3.MessagesAccepted {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestMessageAccounting(t *testing.T) {
	const n, rounds = 50, 20
	cfg := Config{N: n, Channel: channel.Noiseless{}, Seed: 7}
	res, err := Run(cfg, &chatter{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds {
		t.Errorf("Rounds = %d, want %d", res.Rounds, rounds)
	}
	if res.MessagesSent != int64(n*rounds) {
		t.Errorf("MessagesSent = %d, want %d", res.MessagesSent, n*rounds)
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Errorf("accepted %d + dropped %d != sent %d",
			res.MessagesAccepted, res.MessagesDropped, res.MessagesSent)
	}
	if res.MessagesAccepted > int64(n*rounds) || res.MessagesAccepted <= 0 {
		t.Errorf("implausible accepted count %d", res.MessagesAccepted)
	}
}

func TestAcceptOnePerRound(t *testing.T) {
	// With everyone sending, a receiver must accept at most one message
	// per round.
	const n, rounds = 30, 40
	c := &chatter{rounds: rounds}
	_, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 9}, c)
	if err != nil {
		t.Fatal(err)
	}
	for a, got := range c.received {
		if got > rounds {
			t.Fatalf("agent %d accepted %d messages in %d rounds", a, got, rounds)
		}
	}
}

func TestAcceptRateMatchesTheory(t *testing.T) {
	// When all n agents send, the probability that a given agent receives
	// at least one message in a round is 1 − (1−1/(n−1))^(n−1) ≈ 1 − 1/e
	// (self-delivery excluded). Claim 2.9 uses the same quantity.
	const n, rounds = 200, 400
	c := &chatter{rounds: rounds}
	res, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 11}, c)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.MessagesAccepted) / float64(n*rounds)
	want := 1 - math.Pow(1-1.0/(n-1), n-1)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("accept rate = %v, want about %v", got, want)
	}
}

func TestNoSelfDeliveryByDefault(t *testing.T) {
	// With n = 2 and self-messages disabled, every message must reach the
	// other agent: with only agent pushes each round, both always receive.
	const rounds = 100
	c := &chatter{rounds: rounds}
	res, err := Run(Config{N: 2, Channel: channel.Noiseless{}, Seed: 3}, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesAccepted != 2*rounds {
		t.Fatalf("with n=2 every message must be delivered: accepted %d of %d",
			res.MessagesAccepted, 2*rounds)
	}
	for a, got := range c.received {
		if got != rounds {
			t.Fatalf("agent %d received %d, want %d", a, got, rounds)
		}
	}
}

func TestSelfMessagesAllowed(t *testing.T) {
	// With self-messages allowed and n = 2, some messages self-deliver,
	// so collision or self-receipt changes the per-agent counts.
	const rounds = 2000
	c := &chatter{rounds: rounds}
	res, err := Run(Config{N: 2, Channel: channel.Noiseless{}, Seed: 3, AllowSelfMessages: true}, c)
	if err != nil {
		t.Fatal(err)
	}
	// Expected accepted fraction: each agent receives >= 1 message with
	// prob 3/4 per round (two senders each picking it w.p. 1/2).
	got := float64(res.MessagesAccepted) / float64(2*rounds)
	if math.Abs(got-0.75) > 0.03 {
		t.Fatalf("self-allowed accept rate %v, want about 0.75", got)
	}
}

func TestSilentProtocolSendsNothing(t *testing.T) {
	s := &silent{chatter{rounds: 10}}
	res, err := Run(Config{N: 20, Channel: channel.Noiseless{}, Seed: 5}, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 0 || res.MessagesAccepted != 0 {
		t.Fatalf("silent protocol produced traffic: %+v", res)
	}
	if res.Undecided != 20 {
		t.Fatalf("Undecided = %d, want 20", res.Undecided)
	}
}

func TestMaxRoundsTruncation(t *testing.T) {
	res, err := Run(Config{N: 10, Channel: channel.Noiseless{}, Seed: 1, MaxRounds: 5},
		&chatter{rounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5", res.Rounds)
	}
}

func TestDropProb(t *testing.T) {
	const n, rounds = 100, 200
	res, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 13, DropProb: 0.5},
		&chatter{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// About half the messages must be lost before recipient selection,
	// plus collision losses on top.
	minDropped := int64(float64(n*rounds) * 0.45)
	if res.MessagesDropped < minDropped {
		t.Fatalf("dropped %d, want at least %d", res.MessagesDropped, minDropped)
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Fatal("conservation violated with drops")
	}
}

func TestCrashedAgentsAreDeaf(t *testing.T) {
	const n, rounds = 30, 50
	c := &chatter{rounds: rounds}
	plan := NewCrashAt(0, 0, 1, 2)
	res, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 17, Failures: plan}, c)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		if c.received[a] != 0 {
			t.Errorf("crashed agent %d received %d messages", a, c.received[a])
		}
	}
	// Crashed agents also must not send: (n-3) senders * rounds.
	if res.MessagesSent != int64((n-3)*rounds) {
		t.Errorf("MessagesSent = %d, want %d", res.MessagesSent, (n-3)*rounds)
	}
}

func TestCrashAtLaterRound(t *testing.T) {
	const n, rounds = 20, 30
	plan := NewCrashAt(10, 5)
	c := &chatter{rounds: rounds}
	res, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 19, Failures: plan}, c)
	if err != nil {
		t.Fatal(err)
	}
	// Agent 5 sends in rounds 0..9 only.
	want := int64((n-1)*rounds + 10)
	if res.MessagesSent != want {
		t.Errorf("MessagesSent = %d, want %d", res.MessagesSent, want)
	}
}

func TestRandomCrashesValidation(t *testing.T) {
	for _, p := range []float64{1.5, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("crash probability %v did not panic", p)
				}
			}()
			NewRandomCrashes(10, p, 0, rng.NewKey(1))
		}()
	}
}

func TestObserverRuns(t *testing.T) {
	seen := 0
	cfg := Config{
		N: 10, Channel: channel.Noiseless{}, Seed: 1,
		Observer: func(round int, e *Engine) {
			if round != seen {
				t.Errorf("observer round %d, want %d", round, seen)
			}
			if e.N() != 10 {
				t.Errorf("engine N = %d", e.N())
			}
			seen++
		},
	}
	if _, err := Run(cfg, &chatter{rounds: 7}); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Fatalf("observer ran %d times, want 7", seen)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Opinions: [2]int{30, 70}}
	if got := r.CorrectFraction(channel.One); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("CorrectFraction = %v", got)
	}
	if got := r.Bias(channel.One); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Bias = %v", got)
	}
	if r.AllCorrect(channel.One) {
		t.Error("AllCorrect should be false")
	}
	full := Result{Opinions: [2]int{0, 100}}
	if !full.AllCorrect(channel.One) {
		t.Error("AllCorrect should be true")
	}
	var empty Result
	if empty.CorrectFraction(channel.One) != 0 {
		t.Error("empty result fraction should be 0")
	}
}

func TestRecipientUniformity(t *testing.T) {
	// Over many rounds of a single sender, recipients should be uniform
	// over the other agents.
	const n = 20
	counts := make([]int, n)
	p := &singleSender{rounds: 20000, counts: counts}
	if _, err := Run(Config{N: n, Channel: channel.Noiseless{}, Seed: 29}, p); err != nil {
		t.Fatal(err)
	}
	if counts[0] != 0 {
		t.Fatalf("sender received its own message %d times", counts[0])
	}
	want := 20000.0 / (n - 1)
	for a := 1; a < n; a++ {
		if math.Abs(float64(counts[a])-want) > 5*math.Sqrt(want) {
			t.Errorf("agent %d received %d, want about %.0f", a, counts[a], want)
		}
	}
}

// singleSender: only agent 0 transmits; counts receipts per agent.
type singleSender struct {
	rounds int
	counts []int
}

func (s *singleSender) Name() string       { return "single-sender" }
func (s *singleSender) Setup(int, rng.Key) {}
func (s *singleSender) Send(a, _ int) (channel.Bit, bool) {
	return channel.One, a == 0
}
func (s *singleSender) Receive(a int, _ channel.Bit, _ int) { s.counts[a]++ }
func (s *singleSender) EndRound(int)                        {}
func (s *singleSender) Done(round int) bool                 { return round >= s.rounds }
func (s *singleSender) Opinion(int) (channel.Bit, bool)     { return 0, false }

// TestCollisionResolutionUniform checks the reservoir accept-one rule:
// with two senders pushing distinct bits at a single receiver (n = 3 where
// agent 2 never sends), accepted bits should be about 50/50 whenever both
// messages land on the same agent.
func TestCollisionResolutionUniform(t *testing.T) {
	p := &twoSenders{rounds: 30000}
	if _, err := Run(Config{N: 3, Channel: channel.Noiseless{}, Seed: 31}, p); err != nil {
		t.Fatal(err)
	}
	// Agent 2 receives from both senders; when both target it, one bit is
	// chosen uniformly. Count the share of ones among agent 2 receipts in
	// colliding rounds.
	if p.collisions < 1000 {
		t.Fatalf("too few collisions to test: %d", p.collisions)
	}
	got := float64(p.onesInCollisions) / float64(p.collisions)
	if math.Abs(got-0.5) > 0.03 {
		t.Fatalf("collision winner bias: %v ones, want about 0.5", got)
	}
}

// twoSenders: agents 0 and 1 push bits 0 and 1 respectively every round;
// agent 2 records what it accepted. A collision round at agent 2 is one
// where both messages targeted agent 2 — detectable because n = 3 means
// agent 0's message goes to 1 or 2, and agent 1's to 0 or 2; the receipt
// pattern of agents 0 and 1 reveals the targeting.
type twoSenders struct {
	rounds           int
	collisions       int
	onesInCollisions int

	got2 bool
	bit2 channel.Bit
	got0 bool
	got1 bool
}

func (s *twoSenders) Name() string       { return "two-senders" }
func (s *twoSenders) Setup(int, rng.Key) {}
func (s *twoSenders) Send(a, _ int) (channel.Bit, bool) {
	switch a {
	case 0:
		return channel.Zero, true
	case 1:
		return channel.One, true
	}
	return 0, false
}
func (s *twoSenders) Receive(a int, b channel.Bit, _ int) {
	switch a {
	case 0:
		s.got0 = true
	case 1:
		s.got1 = true
	case 2:
		s.got2 = true
		s.bit2 = b
	}
}
func (s *twoSenders) EndRound(int) {
	// Both messages targeted agent 2 iff neither agent 0 nor agent 1
	// received anything.
	if s.got2 && !s.got0 && !s.got1 {
		s.collisions++
		if s.bit2 == channel.One {
			s.onesInCollisions++
		}
	}
	s.got0, s.got1, s.got2 = false, false, false
}
func (s *twoSenders) Done(round int) bool             { return round >= s.rounds }
func (s *twoSenders) Opinion(int) (channel.Bit, bool) { return 0, false }
