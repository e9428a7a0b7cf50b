package async

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// Sender-list suite, mirroring span_test.go's oracle style: at every
// round barrier of live runs, the total BulkSenders(g) list length — the
// count the keyed engine's sparse regime keys off — must equal the
// brute-force Send scan over the whole population, on the live class set
// of the moment (which for self-sync grows as agents make first
// contact). Like Send, the lists are pre-crash: the engine masks crashed
// agents downstream.
func TestBulkSendersTotalMatchesBruteScan(t *testing.T) {
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
				c.Failures = sim.NewRandomCrashes(n, 0.2, 15, rng.NewKey(9), 0)
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
				zeros, ones := p.BulkSenders(g)
				listed := len(zeros) + len(ones)
				// The query is idempotent: the engine's own call after
				// this one sees the same lists.
				if zeros, ones = p.BulkSenders(g); len(zeros)+len(ones) != listed {
					t.Fatalf("%s: BulkSenders(%d) unstable: %d then %d senders",
						sc.name, g, listed, len(zeros)+len(ones))
				}
				brute := 0
				for a := 0; a < n; a++ {
					if _, sends := p.Send(a, g); sends {
						brute++
					}
				}
				if brute != listed {
					t.Fatalf("%s: BulkSenders(%d) lists %d, brute Send scan = %d",
						sc.name, g, listed, brute)
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

// TestBulkSendersOutOfSchedule pins the quiet side: rounds past the
// schedule list no senders.
func TestBulkSendersOutOfSchedule(t *testing.T) {
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
		zeros, ones := p.BulkSenders(g)
		if len(zeros)+len(ones) != 0 {
			t.Errorf("BulkSenders(%d) past schedule non-empty", g)
		}
	}
}
