package sim

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// bulkChatter is a bulk-capable engine-test protocol: every agent sends a
// fixed bit (its parity) every round; accepted deliveries accumulate in
// the packed counters and are never consumed, so the engine's two delivery
// modes (BulkDeliver and direct accumulation) must produce the same
// counters.
type bulkChatter struct {
	rounds int
	n      int
	acc    []uint64
	zeros  []int32
	ones   []int32
}

func (c *bulkChatter) Name() string { return "bulk-chatter" }
func (c *bulkChatter) Setup(n int, _ rng.Key) {
	c.n = n
	c.acc = make([]uint64, n)
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	for a := 0; a < n; a++ {
		if a%2 == 0 {
			c.zeros = append(c.zeros, int32(a))
		} else {
			c.ones = append(c.ones, int32(a))
		}
	}
}
func (c *bulkChatter) Send(a, round int) (channel.Bit, bool) {
	return channel.Bit(a % 2), true
}
func (c *bulkChatter) Receive(a int, b channel.Bit, round int) {
	c.acc[a] += uint64(b)<<32 + 1
}
func (c *bulkChatter) EndRound(int)        {}
func (c *bulkChatter) Done(round int) bool { return round >= c.rounds }
func (c *bulkChatter) Opinion(a int) (channel.Bit, bool) {
	total := c.acc[a] & (1<<32 - 1)
	if total == 0 {
		return 0, false
	}
	if 2*(c.acc[a]>>32) >= total {
		return channel.One, true
	}
	return channel.Zero, true
}

func (c *bulkChatter) BulkEnabled() bool { return true }
func (c *bulkChatter) BulkSenders(round int) ([]int32, []int32) {
	return c.zeros, c.ones
}
func (c *bulkChatter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, a := range receivers {
		c.acc[a] += uint64(bits[i])<<32 + 1
	}
}
func (c *bulkChatter) BulkAccumulate(int) bool    { return true }
func (c *bulkChatter) BulkAccumulators() []uint64 { return c.acc }

func (c *bulkChatter) received(a int) uint64     { return c.acc[a] & (1<<32 - 1) }
func (c *bulkChatter) receivedOnes(a int) uint64 { return c.acc[a] >> 32 }

func TestRunTwicePanics(t *testing.T) {
	e, err := NewEngine(Config{N: 16, Channel: channel.Noiseless{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(&chatter{rounds: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("second Run without Reset did not panic")
		}
	}()
	e.Run(&chatter{rounds: 3})
}

func TestResetMatchesFreshEngine(t *testing.T) {
	cfg := Config{N: 64, Channel: channel.FromEpsilon(0.25), Seed: 1}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(&chatter{rounds: 25}) // dirty the engine with a first run
	e.Reset(9)
	reused := e.Run(&chatter{rounds: 25})

	cfg.Seed = 9
	fresh, err := Run(cfg, &chatter{rounds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if reused != fresh {
		t.Fatalf("Reset engine diverged from fresh engine:\n%+v\n%+v", reused, fresh)
	}
}

func TestResetMatchesFreshEngineBatched(t *testing.T) {
	cfg := Config{N: 300, Channel: channel.FromEpsilon(0.3), Seed: 2, AllowSelfMessages: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(&bulkChatter{rounds: 40})
	e.Reset(11)
	reused := e.Run(&bulkChatter{rounds: 40})

	cfg.Seed = 11
	fresh, err := Run(cfg, &bulkChatter{rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	if reused != fresh {
		t.Fatalf("Reset engine diverged from fresh engine on the batched path:\n%+v\n%+v", reused, fresh)
	}
}

// TestKernelAutoFallsBackWithoutBulkProtocol: a protocol without the
// batched capability runs on per-agent collection, visibly in the path
// counters.
func TestKernelAutoFallsBackWithoutBulkProtocol(t *testing.T) {
	res, err := Run(Config{N: 16, Channel: channel.Noiseless{}, Seed: 1}, &chatter{rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.PerAgent != int64(res.Rounds) {
		t.Fatalf("plain Protocol ran %+v over %d rounds, want every round per-agent", res.Paths, res.Rounds)
	}
}

func TestBatchedDeterminism(t *testing.T) {
	for _, self := range []bool{false, true} {
		cfg := Config{
			N: 400, Channel: channel.FromEpsilon(0.3), Seed: 42,
			AllowSelfMessages: self,
		}
		r1, err := Run(cfg, &bulkChatter{rounds: 60})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Paths.PerAgent != 0 {
			t.Fatalf("self=%v: fell back to per-agent collection: %+v", self, r1.Paths)
		}
		r2, _ := Run(cfg, &bulkChatter{rounds: 60})
		if r1 != r2 {
			t.Fatalf("self=%v: identical configs diverged:\n%+v\n%+v", self, r1, r2)
		}
		cfg.Seed = 43
		r3, _ := Run(cfg, &bulkChatter{rounds: 60})
		if r1.MessagesAccepted == r3.MessagesAccepted && r1.Opinions == r3.Opinions {
			t.Fatalf("self=%v: different seeds produced identical runs", self)
		}
	}
}

func TestBatchedAcceptRateMatchesTheory(t *testing.T) {
	// Per-message batched path, self-delivery excluded: acceptance per
	// agent-round is 1 − (1−1/(n−1))^(n−1), as in the per-agent path test.
	const n, rounds = 200, 400
	res, err := Run(Config{
		N: n, Channel: channel.Noiseless{}, Seed: 11,
	}, &bulkChatter{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.PerAgent != 0 {
		t.Fatalf("fell back to per-agent collection: %+v", res.Paths)
	}
	got := float64(res.MessagesAccepted) / float64(n*rounds)
	want := 1 - math.Pow(1-1.0/(n-1), n-1)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("accept rate = %v, want about %v", got, want)
	}
}

func TestDenseAcceptRateMatchesTheory(t *testing.T) {
	// Dense path (self-messages allowed, uniform channel, accumulate
	// delivery, m ≥ denseMinMessages): acceptance is 1 − (1−1/n)^n.
	const n, rounds = 512, 400
	res, err := Run(Config{
		N: n, Channel: channel.Noiseless{}, Seed: 13,
		AllowSelfMessages: true,
	}, &bulkChatter{rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.PerAgent != 0 {
		t.Fatalf("fell back to per-agent collection: %+v", res.Paths)
	}
	got := float64(res.MessagesAccepted) / float64(n*rounds)
	want := 1 - math.Pow(1-1.0/n, n)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("dense accept rate = %v, want about %v", got, want)
	}
	if res.MessagesSent != int64(n*rounds) {
		t.Fatalf("MessagesSent = %d, want %d", res.MessagesSent, n*rounds)
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Fatal("conservation violated on the dense path")
	}
}

func TestDenseCollisionResolutionUnbiased(t *testing.T) {
	// Half the senders push zeros, half ones; by symmetry the delivered
	// bits must be balanced (Noiseless channel, dense path).
	const n, rounds = 1024, 300
	p := &bulkChatter{rounds: rounds}
	_, err := Run(Config{
		N: n, Channel: channel.Noiseless{}, Seed: 17,
		AllowSelfMessages: true,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	var total, ones uint64
	for a := 0; a < n; a++ {
		total += p.received(a)
		ones += p.receivedOnes(a)
	}
	frac := float64(ones) / float64(total)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("delivered ones fraction = %v, want about 0.5", frac)
	}
}

func TestDenseNoiseRateMatchesChannel(t *testing.T) {
	// All senders push ones; the only source of delivered zeros is channel
	// noise, so the zero fraction must match the BSC flip probability.
	const n, rounds = 512, 400
	p := &allOnesBulk{bulkChatter{rounds: rounds}}
	_, err := Run(Config{
		N: n, Channel: channel.NewBSC(0.2), Seed: 19,
		AllowSelfMessages: true,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	var total, ones uint64
	for a := 0; a < n; a++ {
		total += p.received(a)
		ones += p.receivedOnes(a)
	}
	frac := 1 - float64(ones)/float64(total)
	if math.Abs(frac-0.2) > 0.01 {
		t.Fatalf("flip fraction = %v, want about 0.2", frac)
	}
}

// allOnesBulk sends bit 1 from every agent.
type allOnesBulk struct{ bulkChatter }

func (c *allOnesBulk) Setup(n int, key rng.Key) {
	c.bulkChatter.Setup(n, key)
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	for a := 0; a < n; a++ {
		c.ones = append(c.ones, int32(a))
	}
}
func (c *allOnesBulk) Send(a, round int) (channel.Bit, bool) { return channel.One, true }

func TestBatchedNoSelfDelivery(t *testing.T) {
	// n = 2 without self-messages: every message must reach the other
	// agent, exactly as on the per-agent path.
	const rounds = 200
	p := &bulkChatter{rounds: rounds}
	res, err := Run(Config{
		N: 2, Channel: channel.Noiseless{}, Seed: 3,
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths.PerAgent != 0 {
		t.Fatalf("fell back to per-agent collection: %+v", res.Paths)
	}
	if res.MessagesAccepted != 2*rounds {
		t.Fatalf("accepted %d of %d", res.MessagesAccepted, 2*rounds)
	}
	for a := 0; a < 2; a++ {
		if got := p.received(a); got != rounds {
			t.Fatalf("agent %d received %d, want %d", a, got, rounds)
		}
	}
}

func TestBatchedDropProb(t *testing.T) {
	for _, self := range []bool{false, true} {
		const n, rounds = 512, 100
		res, err := Run(Config{
			N: n, Channel: channel.Noiseless{}, Seed: 13, DropProb: 0.5,
			AllowSelfMessages: self,
		}, &bulkChatter{rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		if res.Paths.PerAgent != 0 {
			t.Fatalf("self=%v: fell back to per-agent collection: %+v", self, res.Paths)
		}
		minDropped := int64(float64(n*rounds) * 0.45)
		if res.MessagesDropped < minDropped {
			t.Fatalf("self=%v: dropped %d, want at least %d", self, res.MessagesDropped, minDropped)
		}
		if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
			t.Fatalf("self=%v: conservation violated", self)
		}
	}
}

func TestBatchedCrashAtSemantics(t *testing.T) {
	// Crash plans now run on the batched per-message path. Exact
	// invariants shared with the per-agent path: crashed agents neither
	// send (MessagesSent counts only live senders) nor receive (their
	// accumulators stay empty), and accounting balances.
	crashed := []int{3, 7, 100}
	const n, rounds = 256, 80
	plan := NewCrashAt(0, crashed...)
	for _, kernel := range []Kernel{KernelPerAgent, KernelAuto} {
		for _, self := range []bool{false, true} {
			p := &bulkChatter{rounds: rounds}
			res, err := Run(Config{
				N: n, Channel: channel.Noiseless{}, Seed: 5,
				Failures: plan, Kernel: kernel, AllowSelfMessages: self,
			}, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64((n - len(crashed)) * rounds); res.MessagesSent != want {
				t.Fatalf("kernel=%v self=%v: sent %d, want %d", kernel, self, res.MessagesSent, want)
			}
			for _, a := range crashed {
				if got := p.received(a); got != 0 {
					t.Fatalf("kernel=%v self=%v: crashed agent %d received %d messages", kernel, self, a, got)
				}
			}
			if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
				t.Fatalf("kernel=%v self=%v: conservation violated: %+v", kernel, self, res)
			}
		}
	}
}

func TestBatchedCrashDeterminism(t *testing.T) {
	cfg := Config{
		N: 200, Channel: channel.FromEpsilon(0.3), Seed: 31,
		Failures: NewCrashAt(10, 1, 2, 3, 50, 51),
	}
	r1, err := Run(cfg, &bulkChatter{rounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Run(cfg, &bulkChatter{rounds: 50})
	if r1 != r2 {
		t.Fatalf("identical crash configs diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestDenseAcceptDrawExactlyUniform(t *testing.T) {
	// Exhaustive check of the tree's accept-one rule over all 2048 low-bit
	// patterns u of a slot's collision word: treeResolve must list on the
	// fix list every draw that Lemire's rule may reject, and the draws the
	// rule keeps (acceptLemire11) must map onto each value in [0, cnt)
	// exactly ⌊2048/cnt⌋ times — the property that makes "value < ones"
	// accept with probability exactly ones/cnt. A draw with product low
	// bits in [2¹¹ mod cnt, cnt) is listed but kept, not redrawn:
	// discarding it would reintroduce the bias of an unrejected
	// multiply-shift.
	var fix [denseWidth]int32
	for cnt := uint64(2); cnt <= 24; cnt++ {
		counts := make([]int, cnt)
		kept := 0
		for u := uint64(0); u < 2048; u++ {
			prod := u * cnt
			inbox := []uint32{1<<16 | uint32(cnt)}
			nf, _ := treeResolve(inbox, []uint64{u}, []uint64{0}, &fix, 0)
			keep := acceptLemire11(prod, cnt)
			if nf == 0 && !keep {
				t.Fatalf("cnt=%d u=%d: a rejected draw was resolved in the sweep", cnt, u)
			}
			if !keep {
				continue
			}
			counts[prod>>11]++
			kept++
		}
		want := 2048 / int(cnt)
		if kept != want*int(cnt) {
			t.Fatalf("cnt=%d: kept %d draws, want %d", cnt, kept, want*int(cnt))
		}
		for v, got := range counts {
			if got != want {
				t.Fatalf("cnt=%d: value %d hit by %d accepted draws, want %d", cnt, v, got, want)
			}
		}
	}
}

func TestDenseDeferredHandlesMidRangeCounts(t *testing.T) {
	// Arrival counts from 2048 on exceed the 11-bit Lemire accept draw;
	// keyedFix must hand them to the full-width keyedResolveDeferred,
	// which resolves the slot into exactly one delivery. Exercise it on
	// a mid-band slot and on a saturated counter with a spill tail.
	thresh := channel.FlipThreshold53(0.2)
	e := &Engine{keyed: &keyedState{accs: make([]uint64, 16), noiseThresh: thresh}}
	cc := rng.NewKey(1).Cell(rng.StreamCollision, 0)
	d := &denseRun{spill: []denseSpill{{slot: 5, count: 7, ones: 3}}}
	inbox := make([]uint32, 16)
	inbox[3] = 1500<<16 | 3000    // mid-band, no spill entries
	inbox[5] = 30000<<16 | 0xffff // saturated, spill tail
	e.keyedFix(d, cc, 0, inbox, e.keyed.accs, []int32{3, 5})
	for _, slot := range []int{3, 5} {
		if total := e.keyed.accs[slot] & (1<<32 - 1); total != 1 {
			t.Fatalf("slot %d delivered %d messages, want 1", slot, total)
		}
		if inbox[slot] != 0 {
			t.Fatalf("slot %d left %#x in the inbox", slot, inbox[slot])
		}
	}
}
