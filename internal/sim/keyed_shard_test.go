package sim

import (
	"testing"

	"breathe/internal/channel"
)

// These tests pin the keyed tree's strongest property. The tree has no
// serial prologue and no per-shard state at all: every bucket's draws
// are a pure function of (seed, round, bucket), so invariance over worker
// counts AND over arbitrary bucket execution orders holds by
// construction, not by careful sequencing.

// keyedTreeRun executes a keyed bulkChatter run and returns the result
// plus the final accumulator state.
func keyedTreeRun(t *testing.T, cfg Config, rounds int) (Result, []uint64) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &bulkChatter{rounds: rounds}
	res := e.Run(p)
	acc := make([]uint64, len(p.acc))
	copy(acc, p.acc)
	return res, acc
}

// TestKeyedTreeWorkerCountInvariance: for a fixed (config, seed) under
// the keyed schedule, every worker count — serial included — produces
// byte-identical results and per-agent accumulators, and the path
// counters still report sharded rounds (the regime is independent of the
// mechanism that executes it).
func TestKeyedTreeWorkerCountInvariance(t *testing.T) {
	base := Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.3), Seed: 77,
		AllowSelfMessages: true, Shards: 1,
	}
	const rounds = 12
	refRes, refAcc := keyedTreeRun(t, base, rounds)
	if refRes.Paths.Sharded == 0 {
		t.Fatalf("reference run never took the sharded path: %+v", refRes.Paths)
	}
	for _, shards := range []int{1, 2, 3, 8, 64} {
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

// TestKeyedTreeBucketOrderInvariance executes the serial keyed tree with
// adversarially permuted bucket orders via the keyedBucketOrder hook.
// Identical results for every order prove the schedule carries no hidden
// sequential state between buckets — the property that makes the dynamic
// atomic-counter worker assignment (and any future distribution of
// buckets across machines) safe without a determinism argument about
// scheduling.
func TestKeyedTreeBucketOrderInvariance(t *testing.T) {
	base := Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.3), Seed: 31,
		AllowSelfMessages: true, Shards: 1,
	}
	const rounds = 10
	refRes, refAcc := keyedTreeRun(t, base, rounds)
	if refRes.Paths.Sharded == 0 {
		t.Fatalf("reference run never took the sharded path: %+v", refRes.Paths)
	}

	orders := map[string]func(buckets int) []int{
		"reversed": func(buckets int) []int {
			o := make([]int, buckets)
			for i := range o {
				o[i] = buckets - 1 - i
			}
			return o
		},
		"odd-even interleave": func(buckets int) []int {
			o := make([]int, 0, buckets)
			for i := 1; i < buckets; i += 2 {
				o = append(o, i)
			}
			for i := 0; i < buckets; i += 2 {
				o = append(o, i)
			}
			return o
		},
		"middle-out": func(buckets int) []int {
			o := make([]int, 0, buckets)
			lo, hi := buckets/2, buckets/2+1
			for lo >= 0 || hi < buckets {
				if lo >= 0 {
					o = append(o, lo)
					lo--
				}
				if hi < buckets {
					o = append(o, hi)
					hi++
				}
			}
			return o
		},
	}
	defer func() { keyedBucketOrder = nil }()
	for name, order := range orders { //breathe:order-ok every order variant is compared to the same reference
		keyedBucketOrder = order
		res, acc := keyedTreeRun(t, base, rounds)
		if res != refRes {
			t.Fatalf("bucket order %q: Result diverged:\n%+v\n%+v", name, res, refRes)
		}
		for a := range acc {
			if acc[a] != refAcc[a] {
				t.Fatalf("bucket order %q: agent %d accumulator %#x, want %#x",
					name, a, acc[a], refAcc[a])
			}
		}
	}
}

// TestKeyedAcceptRateMatchesTheory: the keyed tree must keep the exact
// collision semantics — with every agent sending, the per-agent-round
// acceptance probability is 1 − (1−1/n)^n.
func TestKeyedAcceptRateMatchesTheory(t *testing.T) {
	const rounds = 25
	res, _ := keyedTreeRun(t, Config{
		N: shardTestN, Channel: channel.FromEpsilon(0.5), Seed: 5,
		AllowSelfMessages: true, Shards: 3,
	}, rounds)
	if res.Paths.Sharded == 0 {
		t.Fatalf("run never took the sharded path: %+v", res.Paths)
	}
	n := float64(shardTestN)
	wantRate := 1 - pow(1-1/n, shardTestN)
	gotRate := float64(res.MessagesAccepted) / (n * float64(res.Rounds))
	if diff := gotRate - wantRate; diff < -0.01 || diff > 0.01 {
		t.Fatalf("acceptance rate %.4f, want ≈ %.4f", gotRate, wantRate)
	}
}

func pow(x float64, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= x
	}
	return r
}
