package sim

import (
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// shardTestN spans six tree buckets and clears shardMinN, so its
// all-senders rounds run sharded while keeping the tests fast.
const shardTestN = 6 * denseWidth

// TestShardedDeterminismAcrossShardCounts is the heart of the sharded
// kernel's contract: for a fixed (config, seed), every worker count —
// including the serial Shards = 1 — must produce byte-identical results
// and per-agent accumulator states, and repeated runs at the same count
// must agree with each other.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	base := Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.3), Seed: 77,
		AllowSelfMessages: true, Shards: 1,
	}
	const rounds = 12
	refRes, refAcc := keyedTreeRun(t, base, rounds)
	if refRes.Paths.Sharded == 0 {
		t.Fatal("reference run never took the sharded path")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		cfg := base
		cfg.Shards = shards
		for rep := 0; rep < 2; rep++ {
			res, acc := keyedTreeRun(t, cfg, rounds)
			if res != refRes {
				t.Fatalf("Shards=%d rep %d: Result diverged:\n%+v\n%+v", shards, rep, res, refRes)
			}
			for a := range acc {
				if acc[a] != refAcc[a] {
					t.Fatalf("Shards=%d rep %d: agent %d accumulator %#x, want %#x",
						shards, rep, a, acc[a], refAcc[a])
				}
			}
		}
	}
}

// TestShardedCrashDeterminismAcrossShardCounts repeats the contract with
// a crash plan active: crashed receivers are masked inside the workers'
// resolve scans, which must stay deterministic and schedule-independent.
func TestShardedCrashDeterminismAcrossShardCounts(t *testing.T) {
	plan := NewRandomCrashes(shardTestN, 0.1, 5, rng.NewKey(4242), 0)
	base := Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.3), Seed: 9,
		AllowSelfMessages: true, Shards: 1,
		Failures: plan, DropProb: 0.05,
	}
	const rounds = 12
	refRes, refAcc := keyedTreeRun(t, base, rounds)
	if refRes.Paths.Sharded == 0 {
		t.Fatal("crash reference run never took the sharded path")
	}
	for _, shards := range []int{2, 3, 8} {
		cfg := base
		cfg.Shards = shards
		res, acc := keyedTreeRun(t, cfg, rounds)
		if res != refRes {
			t.Fatalf("Shards=%d: crash Result diverged:\n%+v\n%+v", shards, res, refRes)
		}
		for a := range acc {
			if acc[a] != refAcc[a] {
				t.Fatalf("Shards=%d: agent %d accumulator diverged", shards, a)
			}
		}
	}
}

// TestShardedAcceptRateMatchesTheory: with every agent sending, the
// acceptance probability per agent-round is 1 − (1−1/n)^n, exactly as on
// the serial dense path.
func TestShardedAcceptRateMatchesTheory(t *testing.T) {
	const rounds = 25
	res, _ := keyedTreeRun(t, Config{
		N: shardTestN, Channel: channel.NewBSC(0), Seed: 21,
		AllowSelfMessages: true,
	}, rounds)
	if res.Paths.Sharded != rounds {
		t.Fatalf("%d of %d rounds sharded", res.Paths.Sharded, rounds)
	}
	got := float64(res.MessagesAccepted) / float64(shardTestN*rounds)
	want := 1 - math.Pow(1-1.0/shardTestN, shardTestN)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("sharded accept rate = %v, want about %v", got, want)
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Fatal("conservation violated on the sharded path")
	}
}

// TestShardedNoiseRateMatchesChannel: all senders push ones, so delivered
// zeros measure the co-sampled channel noise of the shard substreams.
func TestShardedNoiseRateMatchesChannel(t *testing.T) {
	const rounds = 25
	p := &allOnesBulk{bulkChatter{rounds: rounds}}
	e, err := NewEngine(Config{
		N: shardTestN, Channel: channel.NewBSC(0.2), Seed: 23,
		AllowSelfMessages: true, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	if e.Paths().Sharded == 0 {
		t.Fatal("run never took the sharded path")
	}
	var total, ones uint64
	for a := 0; a < shardTestN; a++ {
		total += p.received(a)
		ones += p.receivedOnes(a)
	}
	frac := 1 - float64(ones)/float64(total)
	if math.Abs(frac-0.2) > 0.005 {
		t.Fatalf("sharded flip fraction = %v, want about 0.2", frac)
	}
}

// TestShardedCrashSemantics: the exact crash invariants on the sharded
// path — crashed agents neither send nor accumulate receptions, and the
// message accounting balances.
func TestShardedCrashSemantics(t *testing.T) {
	// Crashed agents spread across the buckets, including both ends.
	crashed := []int{0, 1, 7000, 2 * denseWidth, 2*denseWidth + 9000, 4*denseWidth + 1, shardTestN - 1}
	plan := NewCrashAt(0, crashed...)
	const rounds = 10
	p := &bulkChatter{rounds: rounds}
	e, err := NewEngine(Config{
		N: shardTestN, Channel: channel.NewBSC(0), Seed: 31,
		AllowSelfMessages: true, Shards: 3,
		Failures: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(p)
	if e.Paths().Sharded == 0 {
		t.Fatal("crash run never took the sharded path")
	}
	if want := int64((shardTestN - len(crashed)) * rounds); res.MessagesSent != want {
		t.Fatalf("sent %d, want %d", res.MessagesSent, want)
	}
	for _, a := range crashed {
		if got := p.received(a); got != 0 {
			t.Fatalf("crashed agent %d accumulated %d receptions", a, got)
		}
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Fatalf("conservation violated: %+v", res)
	}
}

// TestKernelAutoBoundaryAtOldCap is the regression test for the lifted
// population caps: the engine used to fall back to per-agent collection
// at n ≥ 2²⁴ because of old 24-bit packed arrival counters, and later at
// n ≥ 2²⁸. Every population up to MaxN must now be tree-capable: at
// 2²⁴ − 1, 2²⁴, 2²⁴ + 1, 2²⁸ and MaxN alike.
func TestKernelAutoBoundaryAtOldCap(t *testing.T) {
	// Probe prepareKeyed without a run's Θ(n) buffers — the capability
	// decision reads only the config.
	for _, n := range []int{1<<24 - 1, 1 << 24, 1<<24 + 1, 1 << 28, MaxN} {
		e, err := NewEngine(Config{N: n, Channel: channel.NewBSC(0.2), Seed: 1, AllowSelfMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		e.prepareKeyed()
		if k := e.keyed; k.buckets != (n+denseWidth-1)/denseWidth {
			t.Fatalf("n = %d: tree-capable with %d buckets", n, k.buckets)
		}
	}
}

// TestKernelAutoBoundaryRuns executes short full runs at the old cap's
// boundary (16.7M agents): the sharded dense kernel must carry them
// end-to-end. Skipped in -short mode for CI speed.
func TestKernelAutoBoundaryRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("16M-agent boundary runs skipped in -short mode")
	}
	for _, n := range []int{1<<24 - 1, 1<<24 + 1} {
		p := &bulkChatter{rounds: 2}
		e, err := NewEngine(Config{
			N: n, Channel: channel.NewBSC(0.2), Seed: 1,
			AllowSelfMessages: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(p)
		if res.Rounds != 2 || res.MessagesSent != int64(2*n) {
			t.Fatalf("n = %d: rounds %d messages %d", n, res.Rounds, res.MessagesSent)
		}
		if e.Paths().Sharded != 2 {
			t.Fatalf("n = %d: %d sharded rounds, want 2", n, e.Paths().Sharded)
		}
		if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
			t.Fatalf("n = %d: conservation violated", n)
		}
	}
}

// TestPerMessageInboxWordCoversWidenedCap is the overflow guard on the
// scatter regime's inbox word (arrival count in the low 32 bits, ones in
// the high 32): it must hold the worst case MaxN admits — every one of
// n − 1 < 2³¹ messages of a round arriving at one receiver, all ones —
// without the counters bleeding into each other.
func TestPerMessageInboxWordCoversWidenedCap(t *testing.T) {
	inbox := make([]uint64, 1)
	touched := make([]int32, 4)
	// The increments scatterPlace uses: one for a zero, 1<<32|1 for a one.
	nt := scatterAdd(inbox, touched, 0, 0, 1)
	nt = scatterAdd(inbox, touched, nt, 0, 1<<32|1)
	nt = scatterAdd(inbox, touched, nt, 0, 1<<32|1)
	if nt != 1 || inbox[0] != 2<<32|3 {
		t.Fatalf("three arrivals: touched %d, word %#x; want 1, %#x", nt, inbox[0], uint64(2<<32|3))
	}
	// Doing all 2³¹ additions is pointless; the closed form is what they
	// reach.
	maxArrivals := uint64(MaxN - 1)
	v := (1<<32 | 1) * maxArrivals
	if got := v & (1<<32 - 1); got != maxArrivals {
		t.Fatalf("count field = %d, want %d", got, maxArrivals)
	}
	if got := v >> 32; got != maxArrivals {
		t.Fatalf("ones field = %d, want %d", got, maxArrivals)
	}
}

// TestShardedEngineResetReuse: a Reset engine re-running a sharded config
// must match a fresh engine bit for bit (buffer reuse across runs).
func TestShardedEngineResetReuse(t *testing.T) {
	cfg := Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.25), Seed: 3,
		AllowSelfMessages: true, Shards: 3,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(&bulkChatter{rounds: 8})
	cfg.Seed = 19
	if err := e.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	reused := e.Run(&bulkChatter{rounds: 8})

	fresh, err := Run(cfg, &bulkChatter{rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reused != fresh {
		t.Fatalf("Reset engine diverged on the sharded path:\n%+v\n%+v", reused, fresh)
	}
}
