// Cross-kernel bit-identity of the keyed draw schedule: every execution
// strategy — per-agent collection and auto, at any worker count, and a
// repeated run — must produce byte-identical results, message
// accounting, path counters and final per-agent opinions for a fixed
// (config, seed). This is the guarantee that demotes Config.Kernel and
// Config.Shards to pure performance knobs and lets the service cache
// serve one kernel's result to another's request.
package sim_test

import (
	"hash/fnv"
	"math"
	"testing"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// keyedN spans eight tree buckets and clears shardMinN, so the keyed
// tree regime runs sharded rounds and the batched kernel's worker counts
// genuinely schedule buckets differently.
const keyedN = 1 << 16

func keyedFingerprint(t *testing.T, cfg sim.Config, factory func() sim.Protocol) (sim.Result, uint64) {
	t.Helper()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := factory()
	res := e.Run(p)
	h := fnv.New64a()
	var buf [2]byte
	for a := 0; a < cfg.N; a++ {
		bit, ok := p.Opinion(a)
		buf[0] = byte(bit)
		buf[1] = 0
		if ok {
			buf[1] = 1
		}
		h.Write(buf[:])
	}
	return res, h.Sum64()
}

// assertKernelInvariance runs the scenario under every kernel × worker
// count, plus a repeat of the reference, and demands bit-identical
// outcomes, including the Paths counters: the sampling regime is a pure
// function of the round, not of the kernel, so even the path breakdown
// must agree. It returns the reference Result.
func assertKernelInvariance(t *testing.T, name string, cfg sim.Config, factory func() sim.Protocol) sim.Result {
	t.Helper()
	cfg.Kernel = sim.KernelAuto
	cfg.Shards = 1
	refRes, refFP := keyedFingerprint(t, cfg, factory)
	t.Logf("%s: %d rounds, paths %+v, %d messages", name, refRes.Rounds, refRes.Paths, refRes.MessagesSent)
	type cell struct {
		kernel sim.Kernel
		shards int
	}
	var cells []cell
	for _, kernel := range []sim.Kernel{sim.KernelAuto, sim.KernelPerAgent} {
		for _, shards := range []int{1, 2, 3, 8} {
			cells = append(cells, cell{kernel, shards})
		}
	}
	cells = append(cells, cell{sim.KernelAuto, 1}) // repeat run
	for _, c := range cells {
		run := cfg
		run.Kernel = c.kernel
		run.Shards = c.shards
		res, fp := keyedFingerprint(t, run, factory)
		if res != refRes {
			t.Fatalf("%s kernel=%v shards=%d: Result diverged:\n%+v\n%+v",
				name, c.kernel, c.shards, res, refRes)
		}
		if fp != refFP {
			t.Fatalf("%s kernel=%v shards=%d: final opinions diverged", name, c.kernel, c.shards)
		}
	}
	return refRes
}

// requireSharded fails a scenario whose reference run never executed a
// parallel tree round, so its worker-count cells compared nothing.
func requireSharded(t *testing.T, ref sim.Result) {
	t.Helper()
	if ref.Paths.Sharded == 0 {
		t.Fatalf("reference run executed no sharded round: %+v", ref.Paths)
	}
}

func TestKeyedKernelIdentityCoreBroadcast(t *testing.T) {
	params := core.DefaultParams(keyedN, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: keyedN, Channel: channel.FromEpsilon(0.3), Seed: 12,
		AllowSelfMessages: true,
		// Far enough into Stage II that dense sharded rounds run, without
		// paying for the full schedule in every cell of the matrix.
		MaxRounds: params.StageIRounds() + 60,
	}
	requireSharded(t, assertKernelInvariance(t, "core-broadcast", cfg, factory))
}

func TestKeyedKernelIdentityConsensus(t *testing.T) {
	params := core.DefaultParams(keyedN, 0.3)
	sizeA := 4 * params.BetaS
	if sizeA > keyedN/2 {
		sizeA = keyedN / 2
	}
	correct := int(float64(sizeA) * 0.7)
	factory := func() sim.Protocol {
		p, err := core.NewConsensus(params, channel.One, correct, sizeA-correct)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: keyedN, Channel: channel.FromEpsilon(0.3), Seed: 23,
		AllowSelfMessages: true,
		MaxRounds:         params.StageIRounds() + 60,
	}
	requireSharded(t, assertKernelInvariance(t, "consensus", cfg, factory))
}

func TestKeyedKernelIdentityAsyncKnownOffsets(t *testing.T) {
	params := core.DefaultParams(keyedN, 0.3)
	D := 2 * int(math.Ceil(math.Log2(keyedN)))
	probe, err := async.NewKnownOffsets(params, channel.One, D)
	if err != nil {
		t.Fatal(err)
	}
	factory := func() sim.Protocol {
		p, err := async.NewKnownOffsets(params, channel.One, D)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: keyedN, Channel: channel.FromEpsilon(0.3), Seed: 34,
		AllowSelfMessages: true,
		MaxRounds:         probe.TotalRounds()*7/20 + 40,
	}
	requireSharded(t, assertKernelInvariance(t, "async-known-offsets", cfg, factory))
}

func TestKeyedKernelIdentityAsyncSelfSync(t *testing.T) {
	params := core.DefaultParams(keyedN, 0.3)
	L := 3 * int(math.Ceil(math.Log2(keyedN)))
	factory := func() sim.Protocol {
		p, err := async.NewSelfSync(params, channel.One, L)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: keyedN, Channel: channel.FromEpsilon(0.3), Seed: 45,
		AllowSelfMessages: true,
		// The prelude plus the first Stage I phases exercise first-contact
		// clock starts under both collection mechanisms.
		MaxRounds: 10 * L,
	}
	assertKernelInvariance(t, "async-selfsync", cfg, factory)
}

// TestKeyedKernelIdentityCrashPlan pins that a keyed crash plan (drawn
// from the run key's dedicated crash stream) composes with the identity
// guarantee: crashed-sender filtering happens in collection and
// crashed-receiver masking in resolve, under both mechanisms.
func TestKeyedKernelIdentityCrashPlan(t *testing.T) {
	params := core.DefaultParams(keyedN, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plan := sim.NewRandomCrashes(keyedN, 0.08, 0, rng.NewKey(56), 0)
	cfg := sim.Config{
		N: keyedN, Channel: channel.FromEpsilon(0.3), Seed: 56,
		AllowSelfMessages: true, Failures: plan,
		MaxRounds: params.StageIRounds() + 60,
	}
	requireSharded(t, assertKernelInvariance(t, "crash-plan", cfg, factory))
}

// TestKeyedKernelIdentityScatterRegime forces the scatter regime for the
// whole run (self-exclusion disables the tree) with message drops active,
// so the per-sender drop and placement draws and the per-receiver
// collision/noise draws are compared across collection mechanisms.
func TestKeyedKernelIdentityScatterRegime(t *testing.T) {
	const n = 4096
	params := core.DefaultParams(n, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 67,
		AllowSelfMessages: false, DropProb: 0.05,
		MaxRounds: params.StageIRounds() + 40,
	}
	assertKernelInvariance(t, "scatter-no-self-drop", cfg, factory)
}

// TestKeyedCrashPlanIsKeyDeterministic pins the keyed crash sampler: the
// plan is a pure function of (key, p, protected), independent of any
// sequential RNG state, and protected agents never crash.
func TestKeyedCrashPlanIsKeyDeterministic(t *testing.T) {
	a := sim.NewRandomCrashes(10000, 0.2, 3, rng.NewKey(99), 0, 7)
	b := sim.NewRandomCrashes(10000, 0.2, 3, rng.NewKey(99), 0, 7)
	if a.NumCrashed() != b.NumCrashed() {
		t.Fatalf("crash sets differ: %d vs %d", a.NumCrashed(), b.NumCrashed())
	}
	for i := 0; i < 10000; i++ {
		if a.Crashed(i, 3) != b.Crashed(i, 3) {
			t.Fatalf("agent %d crash state differs between identical keys", i)
		}
	}
	if a.Crashed(0, 100) || a.Crashed(7, 100) {
		t.Fatal("protected agent crashed")
	}
	got := float64(a.NumCrashed()) / 10000
	if math.Abs(got-0.2) > 0.02 {
		t.Fatalf("crash rate %.3f far from 0.2", got)
	}
	c := sim.NewRandomCrashes(10000, 0.2, 3, rng.NewKey(100), 0)
	if c.NumCrashed() == a.NumCrashed() {
		diff := 0
		for i := 0; i < 10000; i++ {
			if a.Crashed(i, 3) != c.Crashed(i, 3) {
				diff++
			}
		}
		if diff == 0 {
			t.Fatal("different keys produced identical crash sets")
		}
	}
}
