package sim

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim/simtest"
)

// patternChatter is the engine fuzz target's bulk protocol: agent a sends
// in round g iff a < limit and bit (a+g) mod 64 of the pattern word is
// set, and the bit it sends is bit (a+g+32) mod 64. The top three bits of
// the word shrink limit down to n/128, so inputs reach the sparse walker
// as well as scatter and tree rounds. Receptions accumulate in packed
// counters so runs compare state, not just Results.
type patternChatter struct {
	pattern uint64
	limit   int
	acc     []uint64
	zeros   []int32
	ones    []int32
}

const patternRounds = 6

func (c *patternChatter) Name() string { return "pattern-chatter" }
func (c *patternChatter) Setup(n int, _ rng.Key) {
	c.limit = n >> (c.pattern >> 61)
	c.acc = make([]uint64, n)
}
func (c *patternChatter) Send(a, round int) (channel.Bit, bool) {
	return channel.Bit(c.pattern >> ((a + round + 32) & 63) & 1),
		a < c.limit && c.pattern>>((a+round)&63)&1 == 1
}
func (c *patternChatter) Receive(a int, b channel.Bit, round int) {
	c.acc[a] += uint64(b)<<32 + 1
}
func (c *patternChatter) EndRound(int)        {}
func (c *patternChatter) Done(round int) bool { return round >= patternRounds }
func (c *patternChatter) Opinion(a int) (channel.Bit, bool) {
	total := c.acc[a] & (1<<32 - 1)
	if total == 0 {
		return 0, false
	}
	if 2*(c.acc[a]>>32) >= total {
		return channel.One, true
	}
	return channel.Zero, true
}

func (c *patternChatter) BulkSenders(round int) ([]int32, []int32) {
	c.zeros, c.ones = c.zeros[:0], c.ones[:0]
	for a := 0; a < c.limit; a++ {
		if bit, ok := c.Send(a, round); ok && bit == 0 {
			c.zeros = append(c.zeros, int32(a))
		} else if ok {
			c.ones = append(c.ones, int32(a))
		}
	}
	return c.zeros, c.ones
}
func (c *patternChatter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, a := range receivers {
		c.acc[a] += uint64(bits[i])<<32 + 1
	}
}
func (c *patternChatter) BulkAccumulate(int) bool    { return true }
func (c *patternChatter) BulkAccumulators() []uint64 { return c.acc }

// plainProtocol exposes only the per-agent rules of the protocol it
// wraps, the way the tests' plain chatters state them: behind
// simtest.PerAgent it has no accumulators, so it never takes the tree.
type plainProtocol struct{ simtest.Protocol }

// FuzzKeyedRound runs one patterned bulk chatter under an arbitrary
// population, drop probability, crash plan, worker count and
// self-message convention four ways — bulk collection on one shard and
// on four, the dense tree in place of the sparse walker, and per-agent
// collection through simtest.PerAgent — and demands that every run
// conserves messages (accepted + dropped = sent) and that all four agree
// on the Result and every accumulator. Without self-messages every
// speaking round is a scatter round, so the chatter's per-agent rules
// alone behind simtest.PerAgent — a plain protocol, which never
// accumulates — must match as well, path counters included.
func FuzzKeyedRound(f *testing.F) {
	f.Fuzz(func(t *testing.T, n16 uint16, pattern uint64, drop, crashRound, crashFrac, shards uint8, self bool) {
		n := 2 + int(n16)%(1<<16-1)
		cfg := Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: pattern ^ uint64(n16),
			AllowSelfMessages: self,
			DropProb:          float64(drop) / 512,
		}
		if crashFrac > 0 {
			cfg.Failures = NewRandomCrashes(n, float64(crashFrac)/256, int(crashRound%8), rng.NewKey(cfg.Seed))
		}
		run := func(name string, shards int, walkerOff bool, wrap func(*patternChatter) Protocol) (Result, []uint64) {
			t.Helper()
			p := &patternChatter{pattern: pattern}
			c := cfg
			c.Shards = shards
			keyedWalkerOff = walkerOff
			defer func() { keyedWalkerOff = false }()
			res, err := Run(c, wrap(p))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
				t.Fatalf("%s: accepted %d + dropped %d != sent %d", name, res.MessagesAccepted, res.MessagesDropped, res.MessagesSent)
			}
			return res, p.acc
		}
		bulk := func(p *patternChatter) Protocol { return p }
		perAgent := func(p *patternChatter) Protocol { return simtest.PerAgent(p) }
		workers := 1 + int(shards%8)

		ref, refAcc := run("shards-1", 1, false, bulk)
		check := func(name string, want, got Result, acc []uint64) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: Result diverged:\n got %+v\nwant %+v", name, got, want)
			}
			for a := range refAcc {
				if acc[a] != refAcc[a] {
					t.Fatalf("%s: acc[%d] = %#x, want %#x", name, a, acc[a], refAcc[a])
				}
			}
		}
		for _, v := range []struct {
			name      string
			shards    int
			walkerOff bool
			wrap      func(*patternChatter) Protocol
		}{
			{"shards-4", 4, false, bulk},
			{"walker-off", workers, true, bulk},
			{"per-agent", workers, false, perAgent},
		} {
			res, acc := run(v.name, v.shards, v.walkerOff, v.wrap)
			check(v.name, ref, res, acc)
		}
		if !self {
			res, acc := run("plain", workers, false, func(p *patternChatter) Protocol { return simtest.PerAgent(plainProtocol{p}) })
			check("plain", ref, res, acc)
		}
	})
}
