package sim

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// Exact single-round laws of the Flip model (§1.3.2), checked on every
// production regime. In one round with self-messages, m senders each push
// to a uniform receiver among n; every receiver accepts one of its
// arrivals uniformly at random, and the channel flips the accepted bit
// with probability p. Crashed agents neither send nor accept. So with L
// live receivers and q = (1−1/n)^m the accepted count — the number of
// occupied live receivers — has
//
//	mean      L(1−q)
//	variance  L(L−1)(1−2/n)^m + Lq − L²q²
//
// and an accepted message carries a one with probability
// (m₁/m)(1−p) + (m₀/m)p. Goldens and identity suites compare the regimes
// with one another; these laws compare them with the model.

// lawChatter sends once, in round 0: every agent in zeros sends a zero,
// every agent in ones a one. Receptions accumulate in packed counters.
type lawChatter struct {
	zeros, ones []int32
	acc         []uint64
}

func (c *lawChatter) Name() string { return "law-chatter" }
func (c *lawChatter) Setup(n int, _ rng.Key) {
	if len(c.acc) != n {
		c.acc = make([]uint64, n)
	}
	clear(c.acc)
}
func (c *lawChatter) Send(a, round int) (channel.Bit, bool) {
	for _, s := range c.ones {
		if int(s) == a {
			return channel.One, true
		}
	}
	for _, s := range c.zeros {
		if int(s) == a {
			return channel.Zero, true
		}
	}
	return 0, false
}
func (c *lawChatter) Receive(a int, b channel.Bit, round int) {
	c.acc[a] += uint64(b)<<32 + 1
}
func (c *lawChatter) BulkSenders(int) ([]int32, []int32) { return c.zeros, c.ones }
func (c *lawChatter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, a := range receivers {
		c.acc[a] += uint64(bits[i])<<32 + 1
	}
}
func (c *lawChatter) BulkAccumulate(int) bool    { return true }
func (c *lawChatter) BulkAccumulators() []uint64 { return c.acc }
func (c *lawChatter) EndRound(int)               {}
func (c *lawChatter) Done(round int) bool        { return round >= 1 }
func (c *lawChatter) Opinion(int) (channel.Bit, bool) {
	return 0, false
}

// lawSeeds is the number of keyed seeds each case draws one round from.
const lawSeeds = 2000

// lawZ is the two-sided bound on every statistic, in standard errors.
const lawZ = 5.0

func TestSingleRoundLaws(t *testing.T) {
	const eps = 0.3
	p := 0.5 - eps
	for _, c := range []struct {
		name  string
		n, m  int
		crash float64
		paths string // the one round's regime, as PathRounds.String
	}{
		{"scatter", 4096, 200, 0, "per-message:1"},
		{"dense", 4096, 2048, 0, "dense:1"},
		{"sharded", 32768, 16384, 0, "sharded:1"},
		{"sparse", 65536, 300, 0, "sparse:1"},
		{"dense-crash", 4096, 2048, 0.1, "dense:1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{N: c.n, Channel: channel.FromEpsilon(eps), AllowSelfMessages: true}
			var plan *CrashPlan
			if c.crash > 0 {
				plan = NewRandomCrashes(c.n, c.crash, 0, rng.NewKey(77), 0)
				cfg.Failures = plan
			}
			// The first m live agents send; every fourth of them a zero.
			proto := &lawChatter{}
			for a := 0; len(proto.zeros)+len(proto.ones) < c.m; a++ {
				if plan != nil && plan.Crashed(a, 0) {
					continue
				}
				if (len(proto.zeros)+len(proto.ones))%4 == 0 {
					proto.zeros = append(proto.zeros, int32(a))
				} else {
					proto.ones = append(proto.ones, int32(a))
				}
			}
			live := c.n
			if plan != nil {
				live -= plan.NumCrashed()
			}

			e := &Engine{}
			var accepted, ones int64
			for s := 0; s < lawSeeds; s++ {
				cfg.Seed = uint64(s) + 1
				if err := e.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				res := e.Run(proto)
				if got := res.Paths.String(); got != c.paths {
					t.Fatalf("seed %d: paths %s, want %s", cfg.Seed, got, c.paths)
				}
				var sum uint64
				for _, w := range proto.acc {
					sum += w
				}
				if got := int64(sum & (1<<32 - 1)); got != res.MessagesAccepted {
					t.Fatalf("seed %d: accumulators hold %d receptions, Result accepted %d", cfg.Seed, got, res.MessagesAccepted)
				}
				accepted += res.MessagesAccepted
				ones += int64(sum >> 32)
			}

			L, n, m := float64(live), float64(c.n), float64(c.m)
			q := math.Pow(1-1/n, m)
			mean := L * (1 - q)
			variance := L*(L-1)*math.Pow(1-2/n, m) + L*q - L*L*q*q
			z := (float64(accepted) - lawSeeds*mean) / math.Sqrt(lawSeeds*variance)
			m1 := float64(len(proto.ones))
			want := m1/m*(1-p) + (m-m1)/m*p
			t.Logf("accepted z = %.2f; ones rate %.5f, want %.5f",
				z, float64(ones)/float64(accepted), want)
			if math.Abs(z) > lawZ {
				t.Errorf("accepted %d over %d seeds, want %.1f per seed: z = %.2f",
					accepted, lawSeeds, mean, z)
			}
			lo, hi := wilson(ones, accepted, lawZ)
			if want < lo || want > hi {
				t.Errorf("ones rate %d/%d outside [%.5f, %.5f], want %.5f",
					ones, accepted, lo, hi, want)
			}
		})
	}
}

// wilson returns the Wilson score interval of k successes in n trials at
// z standard errors.
func wilson(k, n int64, z float64) (lo, hi float64) {
	N := float64(n)
	ph := float64(k) / N
	d := 1 + z*z/N
	center := (ph + z*z/(2*N)) / d
	half := z * math.Sqrt(ph*(1-ph)/N+z*z/(4*N*N)) / d
	return center - half, center + half
}
