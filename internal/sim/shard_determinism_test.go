// Protocol-level determinism of the intra-run sharded kernel: for the
// paper's actual protocols — synchronous core broadcast, the §3.1
// asynchronous known-offsets broadcast, and a crash-fault configuration —
// a fixed (config, seed) must produce byte-identical round counts,
// message accounting and final per-agent opinions for every shard count,
// and across repeated runs at the same count. This is the external-facing
// guarantee that makes Config.Shards a pure performance knob.
package sim_test

import (
	"math"
	"testing"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// detN spans eight tree buckets and clears shardMinN, so worker counts
// 1/2/3/8 genuinely schedule the buckets differently.
const detN = 1 << 16

func assertShardInvariance(t *testing.T, name string, cfg sim.Config, factory func() sim.Protocol) {
	t.Helper()
	cfg.Shards = 1
	refRes, refFP := keyedFingerprint(t, cfg, factory, false)
	if refRes.Paths.Sharded == 0 {
		t.Fatalf("%s: reference run never executed a sharded round (MaxRounds %d too small?)", name, cfg.MaxRounds)
	}
	t.Logf("%s: %d rounds, %d sharded, %d messages", name, refRes.Rounds, refRes.Paths.Sharded, refRes.MessagesSent)
	for _, shards := range []int{1, 2, 3, 8} {
		c := cfg
		c.Shards = shards
		for rep := 0; rep < 2; rep++ {
			res, fp := keyedFingerprint(t, c, factory, false)
			if res != refRes {
				t.Fatalf("%s Shards=%d rep %d: Result diverged:\n%+v\n%+v", name, shards, rep, res, refRes)
			}
			if fp != refFP {
				t.Fatalf("%s Shards=%d rep %d: final opinions diverged", name, shards, rep)
			}
		}
	}
}

func TestShardedDeterminismCoreBroadcast(t *testing.T) {
	params := core.DefaultParams(detN, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := sim.Config{
		N: detN, Channel: channel.FromEpsilon(0.3), Seed: 12,
		AllowSelfMessages: true,
		// Far enough into Stage II that dense sharded rounds run, without
		// paying for the full schedule in every repetition.
		MaxRounds: params.StageIRounds() + 60,
	}
	assertShardInvariance(t, "core-broadcast", cfg, factory)
}

func TestShardedDeterminismAsyncKnownOffsets(t *testing.T) {
	params := core.DefaultParams(detN, 0.3)
	D := 2 * int(math.Ceil(math.Log2(detN)))
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
		N: detN, Channel: channel.FromEpsilon(0.3), Seed: 34,
		AllowSelfMessages: true,
		// The dilated schedule reaches Stage II (where rounds qualify for
		// the dense sharded path) just before the 35% mark at this n; cap
		// shortly after so every repetition covers sharded rounds without
		// paying for the full dilated schedule.
		MaxRounds: probe.TotalRounds()*7/20 + 40,
	}
	assertShardInvariance(t, "async-known-offsets", cfg, factory)
}

func TestShardedDeterminismCrashPlan(t *testing.T) {
	params := core.DefaultParams(detN, 0.3)
	factory := func() sim.Protocol {
		p, err := core.NewBroadcast(params, channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plan := sim.NewRandomCrashes(detN, 0.08, 0, rng.NewKey(77), 0)
	cfg := sim.Config{
		N: detN, Channel: channel.FromEpsilon(0.3), Seed: 56,
		AllowSelfMessages: true, Failures: plan,
		MaxRounds: params.StageIRounds() + 60,
	}
	assertShardInvariance(t, "crash-plan", cfg, factory)
}
