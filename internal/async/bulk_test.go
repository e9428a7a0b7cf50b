package async

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

var _ sim.Protocol = (*Protocol)(nil)

// asyncBuilders constructs the three async scenarios the batched kernel
// must cover, at population n.
func asyncBuilders(n int) map[string]func() (*Protocol, error) {
	params := core.DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	if sizeA > n/2 {
		sizeA = n / 2
	}
	return map[string]func() (*Protocol, error){
		"offsets": func() (*Protocol, error) {
			return NewKnownOffsets(params, channel.One, defaultD(n))
		},
		"selfsync": func() (*Protocol, error) {
			return NewSelfSync(params, channel.One, 3*int(math.Ceil(math.Log2(float64(n)))))
		},
		"consensus": func() (*Protocol, error) {
			return NewKnownOffsetsConsensus(params, channel.One, sizeA*3/4, sizeA/4, defaultD(n))
		},
	}
}

// bulkCrossCheck runs behind simtest.PerAgent, so the engine collects it
// through Send scans, while it interrogates the batched-kernel interface:
// at the start of every round it records the BulkSenders answer and then
// verifies each per-agent Send against it, agent by agent. This pins the cached offset-class sender lists to the
// Send predicate exactly, not just statistically.
type bulkCrossCheck struct {
	*Protocol
	t     *testing.T
	lastG int
	exp   map[int32]channel.Bit
}

func (c *bulkCrossCheck) Send(a, g int) (channel.Bit, bool) {
	if g != c.lastG {
		c.lastG = g
		zeros, ones := c.Protocol.BulkSenders(g)
		clear(c.exp)
		for _, s := range zeros {
			c.exp[s] = channel.Zero
		}
		for _, s := range ones {
			if _, dup := c.exp[s]; dup {
				c.t.Fatalf("round %d: agent %d listed twice by BulkSenders", g, s)
			}
			c.exp[s] = channel.One
		}
	}
	bit, ok := c.Protocol.Send(a, g)
	want, wantOK := c.exp[int32(a)]
	if ok != wantOK || (ok && bit != want) {
		c.t.Fatalf("round %d agent %d: per-agent Send = (%v, %v) but BulkSenders lists (%v, %v)",
			g, a, bit, ok, want, wantOK)
	}
	return bit, ok
}

func TestBulkSendersMatchPerAgentSend(t *testing.T) {
	const n = 512
	for name, build := range asyncBuilders(n) { //breathe:order-ok independent cross-check per builder
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cc := &bulkCrossCheck{Protocol: p, t: t, lastG: -1, exp: map[int32]channel.Bit{}}
		// The wrapper promotes the bulk methods, so simtest.PerAgent pins
		// the engine to Send scans.
		res, err := sim.Run(sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 21,
		}, simtest.PerAgent(cc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.MessagesSent == 0 {
			t.Fatalf("%s: cross-check run sent no messages", name)
		}
	}
}

func TestAsyncBatchedDeterminism(t *testing.T) {
	const n = 256
	for name, build := range asyncBuilders(n) { //breathe:order-ok independent determinism check per builder
		run := func(seed uint64) sim.Result {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				N: n, Channel: channel.FromEpsilon(0.3), Seed: seed,
			}, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Paths.PerAgent != 0 {
				t.Fatalf("%s: fell back to per-agent collection: %+v", name, res.Paths)
			}
			return res
		}
		if r1, r2 := run(7), run(7); r1 != r2 {
			t.Fatalf("%s: same seed diverged on the batched kernel:\n%+v\n%+v", name, r1, r2)
		}
		if r1, r3 := run(7), run(8); r1.MessagesAccepted == r3.MessagesAccepted && r1.Opinions == r3.Opinions {
			t.Fatalf("%s: different seeds produced identical batched runs", name)
		}
	}
}

func TestAsyncBatchedMatchesPerAgentStatistically(t *testing.T) {
	// Bulk and per-agent collection (simtest.PerAgent) sample the same law,
	// so across seeds the mean message
	// and acceptance totals agree within a fraction of a percent (the
	// totals are dominated by the deterministic phase schedule), and the
	// success counts match up to one run. self=true additionally routes
	// the ModeKnownOffsets Stage II rounds through the dense accumulator
	// kernel, so both batched paths are pinned here.
	const n, seeds = 512, 10
	for _, self := range []bool{false, true} {
		for name, build := range asyncBuilders(n) { //breathe:order-ok independent comparison per builder
			type stat struct {
				sent, accepted float64
				success        int
			}
			measure := func(perAgent bool) stat {
				var st stat
				for seed := uint64(0); seed < seeds; seed++ {
					p, err := build()
					if err != nil {
						t.Fatal(err)
					}
					var run sim.Protocol = p
					if perAgent {
						run = simtest.PerAgent(p)
					}
					res, err := sim.Run(sim.Config{
						N: n, Channel: channel.FromEpsilon(0.3), Seed: seed,
						AllowSelfMessages: self,
					}, run)
					if err != nil {
						t.Fatal(err)
					}
					if res.Truncated {
						t.Fatalf("self=%v %s: seed %d truncated", self, name, seed)
					}
					st.sent += float64(res.MessagesSent) / seeds
					st.accepted += float64(res.MessagesAccepted) / seeds
					if res.AllCorrect(channel.One) {
						st.success++
					}
				}
				return st
			}
			ref := measure(true)
			got := measure(false)
			if math.Abs(got.sent-ref.sent)/ref.sent > 0.02 {
				t.Fatalf("self=%v %s: batched sent mean %v deviates from per-agent %v", self, name, got.sent, ref.sent)
			}
			if math.Abs(got.accepted-ref.accepted)/ref.accepted > 0.02 {
				t.Fatalf("self=%v %s: batched accepted mean %v deviates from per-agent %v", self, name, got.accepted, ref.accepted)
			}
			if d := got.success - ref.success; d < -1 || d > 1 {
				t.Fatalf("self=%v %s: success counts diverged: per-agent %d vs batched %d of %d",
					self, name, ref.success, got.success, seeds)
			}
		}
	}
}

func TestAsyncBatchedWithCrashFaults(t *testing.T) {
	// The full combination: asynchronous protocol × crash plan × batched
	// kernel. Crashed agents must not send, accounting must balance, and
	// the acceptance totals must track the per-agent path across seeds.
	const n, seeds = 512, 8
	params := core.DefaultParams(n, 0.3)
	meanAccepted := func(perAgent bool) float64 {
		var sum float64
		for seed := uint64(0); seed < seeds; seed++ {
			p, err := NewKnownOffsets(params, channel.One, defaultD(n))
			if err != nil {
				t.Fatal(err)
			}
			var run sim.Protocol = p
			if perAgent {
				run = simtest.PerAgent(p)
			}
			plan := sim.NewRandomCrashes(n, 0.2, 0, rng.NewKey(4000+seed), 0)
			res, err := sim.Run(sim.Config{
				N: n, Channel: channel.FromEpsilon(0.3), Seed: seed,
				Failures: plan,
			}, run)
			if err != nil {
				t.Fatal(err)
			}
			if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
				t.Fatalf("per-agent=%v seed %d: conservation violated: %+v", perAgent, seed, res)
			}
			sum += float64(res.MessagesAccepted) / seeds
		}
		return sum
	}
	ref := meanAccepted(true)
	got := meanAccepted(false)
	if math.Abs(got-ref)/ref > 0.02 {
		t.Fatalf("async+crash: batched accepted mean %v deviates from per-agent %v", got, ref)
	}
}
