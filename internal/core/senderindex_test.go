package core

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// Sender-index suite: the maintained idxZeros/idxOnes lists (served by
// BulkSenders) must agree with the per-agent Send rule at every round of
// live runs — the same oracle style bulk_test.go uses, tightened from
// spot checks to every round and extended to the ascending-order
// contract. Their total length is also what picks the sparse regime.

// checkIndexRound cross-checks one round: brute Send scan vs the index
// lists. Out-of-schedule rounds stay consistent too: both sides are
// empty. Observers run after EndRound, so callers pass round+1 — the
// round the engine consults the lists in next; at a phase boundary the
// index has already advanced past the finalized phase.
func checkIndexRound(t *testing.T, p *Protocol, n, round int) {
	t.Helper()
	zeros, ones := p.BulkSenders(round)
	for _, list := range [][]int32{zeros, ones} {
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("round %d: sender list not ascending at %d: %d >= %d",
					round, i, list[i-1], list[i])
			}
		}
	}
	inList := make(map[int32]channel.Bit, len(zeros)+len(ones))
	for _, a := range zeros {
		inList[a] = channel.Zero
	}
	for _, a := range ones {
		inList[a] = channel.One
	}
	for a := 0; a < n; a++ {
		bit, sends := p.Send(a, round)
		lb, listed := inList[int32(a)]
		if sends != listed {
			t.Fatalf("round %d agent %d: Send=%v but listed=%v", round, a, sends, listed)
		}
		if sends && bit != lb {
			t.Fatalf("round %d agent %d: Send bit %v, list bit %v", round, a, bit, lb)
		}
	}
}

func TestBulkSendersMatchBruteScan(t *testing.T) {
	const n = 1024
	newProto := func(consensus bool, v Variant) *Protocol {
		t.Helper()
		params := DefaultParams(n, 0.3)
		if consensus {
			sizeA := 4 * params.BetaS
			p, err := NewConsensus(params, channel.One, sizeA*3/4, sizeA-sizeA*3/4)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, err := NewBroadcastVariant(params, channel.One, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The NoBreathe ablation's index grows mid-phase, as agents take an
	// opinion on their first reception.
	noBreathe := Variant{NoBreathe: true}
	scenarios := []struct {
		name      string
		consensus bool
		variant   Variant
		mut       func(*sim.Config)
	}{
		{"broadcast", false, Variant{}, func(*sim.Config) {}},
		{"consensus", true, Variant{}, func(*sim.Config) {}},
		{"broadcast-self", false, Variant{}, func(c *sim.Config) { c.AllowSelfMessages = true }},
		{"broadcast-crash", false, Variant{}, func(c *sim.Config) {
			c.Failures = sim.NewCrashAt(5, 0, 3, 17, 200)
		}},
		{"consensus-keyed-crash", true, Variant{}, func(c *sim.Config) {
			c.Failures = sim.NewRandomCrashes(n, 0.2, 20, rng.NewKey(9), 0)
		}},
		{"no-breathe", false, noBreathe, func(*sim.Config) {}},
		{"no-breathe-self-crash", false, noBreathe, func(c *sim.Config) {
			c.AllowSelfMessages = true
			c.Failures = sim.NewRandomCrashes(n, 0.1, 3, rng.NewKey(9), 0)
		}},
	}
	for _, sc := range scenarios {
		p := newProto(sc.consensus, sc.variant)
		checked := 0
		cfg := sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 9,
			Observer: func(round int, _ *sim.Engine) {
				checkIndexRound(t, p, n, round+1)
				checked++
			},
		}
		sc.mut(&cfg)
		if _, err := sim.Run(cfg, p); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if checked == 0 {
			t.Fatalf("%s: observer never ran", sc.name)
		}
	}
}

// TestBulkSendersSurvivePerAgentCollection runs the oracle behind
// simtest.PerAgent, whose Send scans collect the senders: the index is
// maintained at phase boundaries regardless of how the senders are
// collected, so the BulkSenders lists must stay consistent there too.
func TestBulkSendersSurvivePerAgentCollection(t *testing.T) {
	const n = 512
	p, err := NewBroadcast(DefaultParams(n, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	_, err = sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 4,
		Observer: func(round int, _ *sim.Engine) {
			if round%7 != 0 {
				return
			}
			checkIndexRound(t, p, n, round+1)
			checked++
		},
	}, simtest.PerAgent(p))
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("observer never ran")
	}
}

// TestSetupReusesCapacity pins the allocation contract that replaced the
// old rebuildSenders scan: a warm protocol re-Setup allocates nothing,
// and the index query never allocates.
func TestSetupReusesCapacity(t *testing.T) {
	const n = 512
	p, err := NewBroadcast(DefaultParams(n, 0.3), channel.One)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 2,
	}, p); err != nil {
		t.Fatal(err)
	}
	key := rng.NewKey(3)
	if allocs := testing.AllocsPerRun(10, func() { p.Setup(n, key) }); allocs != 0 {
		t.Errorf("warm Setup allocates %v times per run, want 0", allocs)
	}
	// Re-arm a finished state so the queries hit a live phase.
	p.Setup(n, key)
	if allocs := testing.AllocsPerRun(10, func() {
		p.BulkSenders(0)
	}); allocs != 0 {
		t.Errorf("index query allocates %v times per run, want 0", allocs)
	}
}
