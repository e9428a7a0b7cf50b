package async

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// Sender-index suite, mirroring span_test.go's oracle style: at every
// round barrier of live runs, ActiveSenders(g) — the declared sender-set
// size the keyed engine's sparse regime keys off — must equal the total
// BulkSenders list length and the brute-force Send scan over the whole
// population, on the live class set of the moment (which for self-sync
// grows as agents make first contact). Like Send, the declared size is
// pre-crash: the engine masks crashed agents downstream.
func TestActiveSendersMatchesBruteScan(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	scenarios := []struct {
		name  string
		build func() (*Protocol, error)
		mut   func(*sim.Config)
	}{
		{"known-offsets", func() (*Protocol, error) { return NewKnownOffsets(params, channel.One, 18) }, func(*sim.Config) {}},
		{"selfsync", func() (*Protocol, error) { return NewSelfSync(params, channel.One, 30) }, func(*sim.Config) {}},
		{"known-offsets-crash", func() (*Protocol, error) { return NewKnownOffsets(params, channel.One, 18) },
			func(c *sim.Config) {
				c.Failures = sim.NewRandomCrashesKeyed(n, 0.2, 15, rng.NewKey(9), 0)
			}},
		{"selfsync-crash", func() (*Protocol, error) { return NewSelfSync(params, channel.One, 30) },
			func(c *sim.Config) {
				c.Failures = sim.NewCrashAt(10, 1, 2, 3, 100)
			}},
	}
	for _, sc := range scenarios {
		p, err := sc.build()
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		cfg := sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 9,
			AllowSelfMessages: true,
			Observer: func(round int, _ *sim.Engine) {
				g := round + 1
				declared := p.ActiveSenders(g)
				zeros, ones := p.BulkSenders(g)
				if want := len(zeros) + len(ones); declared != want {
					t.Fatalf("%s: ActiveSenders(%d) = %d, BulkSenders total %d",
						sc.name, g, declared, want)
				}
				// The query is idempotent: a lookup after the union
				// materialization sees the same lists.
				if again := p.ActiveSenders(g); again != declared {
					t.Fatalf("%s: ActiveSenders(%d) unstable: %d then %d",
						sc.name, g, declared, again)
				}
				brute := 0
				for a := 0; a < n; a++ {
					if _, sends := p.Send(a, g); sends {
						brute++
					}
				}
				if brute != declared {
					t.Fatalf("%s: ActiveSenders(%d) = %d, brute Send scan = %d",
						sc.name, g, declared, brute)
				}
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

// TestActiveSendersOutOfSchedule pins the quiet side: rounds past the
// schedule (and the dead gaps before any window) declare zero senders,
// matching BulkSenders' empty union.
func TestActiveSendersOutOfSchedule(t *testing.T) {
	const n = 256
	p, err := NewKnownOffsets(core.DefaultParams(n, 0.3), channel.One, 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 3,
		AllowSelfMessages: true,
	}, p); err != nil {
		t.Fatal(err)
	}
	for _, g := range []int{p.TotalRounds(), p.TotalRounds() + 100} {
		if got := p.ActiveSenders(g); got != 0 {
			t.Errorf("ActiveSenders(%d) past schedule = %d, want 0", g, got)
		}
		zeros, ones := p.BulkSenders(g)
		if len(zeros)+len(ones) != 0 {
			t.Errorf("BulkSenders(%d) past schedule non-empty", g)
		}
	}
}
