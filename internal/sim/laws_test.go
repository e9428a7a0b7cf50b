package sim

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// Exact single-round laws of the Flip model (§1.3.2), checked on every
// production regime. In one round, m senders each push to a uniform
// receiver: among all n agents with self-messages, among the other n − 1
// without. Every receiver accepts one of its arrivals uniformly at random,
// and the channel flips the accepted bit with probability p. Crashed
// agents neither send nor accept.
//
// Let e_r = 1 when r sent and self-messages are excluded, else 0. With
// d = n (self) or n − 1 (no self), a = 1 − 1/d and b = 1 − 2/d, receiver
// r's arrivals are Binomial(m − e_r, 1/d), so it stays empty with
// probability q_r = a^(m−e_r), and two receivers r ≠ r′ both stay empty
// with probability b^(m−e_r−e_r′)·a^(e_r+e_r′): a sender avoids both
// with probability 1 − |{r, r′} \ {s}|/d. The accepted count — the number
// of occupied live receivers — therefore has an exact mean and variance
// over the two receiver groups e = 0 and e = 1 (lawOccupancy).
//
// A receiver's accepted message is a uniform pick among the senders that
// can reach it, so it carries a one with probability
// (m₁′/m′)(1−p) + (1 − m₁′/m′)p, where m′ and m₁′ count the messages and
// the ones those senders send: m and m₁ for a receiver that did not send
// (or with self-messages), one fewer for its own message otherwise.
// Goldens and identity suites compare the regimes with one another; these
// laws compare them with the model.

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
func (c *lawChatter) Accumulators(int) []uint64          { return c.acc }
func (c *lawChatter) EndRound(int)                       {}
func (c *lawChatter) Done(round int) bool                { return round >= 1 }
func (c *lawChatter) Opinion(int) (channel.Bit, bool) {
	return 0, false
}

// lawSeeds is the number of keyed seeds each case draws one round from.
const lawSeeds = 2000

// lawZ is the two-sided bound on every statistic, in standard errors.
const lawZ = 5.0

func TestSingleRoundLaws(t *testing.T) {
	for _, c := range []struct {
		name  string
		n, m  int
		eps   float64
		self  bool
		crash float64
		paths string // the one round's regime, as PathRounds.String
	}{
		{"scatter", 4096, 200, 0.3, true, 0, "per-message:1"},
		{"dense", 4096, 2048, 0.3, true, 0, "dense:1"},
		{"sharded", 32768, 16384, 0.3, true, 0, "sharded:1"},
		{"sparse", 65536, 300, 0.3, true, 0, "sparse:1"},
		{"dense-crash", 4096, 2048, 0.3, true, 0.1, "dense:1"},
		// The second and third flip probabilities: p = 0 and p = 0.45.
		{"scatter-eps0.5", 4096, 200, 0.5, true, 0, "per-message:1"},
		{"dense-eps0.5", 4096, 2048, 0.5, true, 0, "dense:1"},
		{"sparse-eps0.5", 32768, 300, 0.5, true, 0, "sparse:1"},
		{"scatter-eps0.05", 4096, 200, 0.05, true, 0, "per-message:1"},
		{"dense-eps0.05", 4096, 2048, 0.05, true, 0, "dense:1"},
		{"sparse-eps0.05", 32768, 300, 0.05, true, 0, "sparse:1"},
		// Self-exclusion. At small n a receiver's own message is a visible
		// share of the round, so the groups' ones rates differ.
		{"noself-scatter", 256, 32, 0.3, false, 0, "per-message:1"},
		{"noself-scatter-crash", 256, 32, 0.3, false, 0.1, "per-message:1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{N: c.n, Channel: channel.FromEpsilon(c.eps), AllowSelfMessages: c.self}
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
			// Receiver groups: 0 did not send, 1 sent a zero, 2 sent a one.
			group := make([]int, c.n)
			for _, a := range proto.zeros {
				group[a] = 1
			}
			for _, a := range proto.ones {
				group[a] = 2
			}

			// Small rounds are cheap: more seeds narrow the groups' bounds
			// below the gaps between their rates.
			seeds := lawSeeds
			if !c.self {
				seeds *= 25
			}
			e := &Engine{}
			var accepted int64
			var recv, ones [3]int64
			for s := 0; s < seeds; s++ {
				cfg.Seed = uint64(s) + 1
				if err := e.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				res := e.Run(proto)
				if got := res.Paths.String(); got != c.paths {
					t.Fatalf("seed %d: paths %s, want %s", cfg.Seed, got, c.paths)
				}
				var sum int64
				for a, w := range proto.acc {
					g := group[a]
					recv[g] += int64(w & (1<<32 - 1))
					ones[g] += int64(w >> 32)
					sum += int64(w & (1<<32 - 1))
				}
				if sum != res.MessagesAccepted {
					t.Fatalf("seed %d: accumulators hold %d receptions, Result accepted %d", cfg.Seed, sum, res.MessagesAccepted)
				}
				accepted += res.MessagesAccepted
			}

			m1 := len(proto.ones)
			senders := 0
			if !c.self {
				senders = c.m
			}
			mean, variance := lawOccupancy(c.n, c.m, live-senders, senders, c.self)
			z := (float64(accepted) - float64(seeds)*mean) / math.Sqrt(float64(seeds)*variance)
			t.Logf("accepted z = %.2f", z)
			if math.Abs(z) > lawZ {
				t.Errorf("accepted %d over %d seeds, want %.2f per seed: z = %.2f",
					accepted, seeds, mean, z)
			}

			p := 0.5 - c.eps
			for g, own := range [3][2]int{{0, 0}, {1, 0}, {1, 1}} {
				// own counts the messages and the ones a group-g receiver
				// sent itself, which it cannot receive without
				// self-messages.
				mm, mm1 := c.m, m1
				if !c.self {
					mm, mm1 = mm-own[0], mm1-own[1]
				}
				share := float64(mm1) / float64(mm)
				want := share*(1-p) + (1-share)*p
				lo, hi := wilson(ones[g], recv[g], lawZ)
				t.Logf("%s: ones rate %d/%d, want %.5f", lawGroups[g], ones[g], recv[g], want)
				if want < lo || want > hi {
					t.Errorf("%s: ones rate %d/%d outside [%.5f, %.5f], want %.5f",
						lawGroups[g], ones[g], recv[g], lo, hi, want)
				}
			}
		})
	}
}

// lawGroups names the receiver groups of TestSingleRoundLaws.
var lawGroups = [3]string{"non-senders", "zero-senders", "one-senders"}

// lawOccupancy returns the exact mean and variance of one round's
// accepted count: m messages, l0 live receivers that can receive all of
// them and l1 live senders that cannot receive their own (self false).
func lawOccupancy(n, m, l0, l1 int, self bool) (mean, variance float64) {
	d := float64(n)
	if !self {
		d--
	}
	a, b := 1-1/d, 1-2/d
	M := float64(m)
	q0, q1 := math.Pow(a, M), math.Pow(a, M-1)
	p00 := math.Pow(b, M)
	p01 := math.Pow(b, M-1) * a
	p11 := math.Pow(b, M-2) * a * a
	L0, L1 := float64(l0), float64(l1)
	mean = L0*(1-q0) + L1*(1-q1)
	variance = L0*q0*(1-q0) + L1*q1*(1-q1) +
		L0*(L0-1)*(p00-q0*q0) + 2*L0*L1*(p01-q0*q1) + L1*(L1-1)*(p11-q1*q1)
	return mean, variance
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
