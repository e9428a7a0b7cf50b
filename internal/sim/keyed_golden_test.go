// Golden digests of the keyed draw schedule. The identity suites compare
// kernels with each other, so a kernel change that moved bits on every
// kernel at once would pass them all; these pins compare each scenario
// with a fixed SHA-256 instead. A digest covers the full Result (message
// accounting, path counters, opinion counts) and every agent's final
// opinion. If a change legitimately alters the keyed draw schedule,
// regenerate the constants and say so in the commit.
package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// keyedGoldenDigest runs p under cfg and hashes the Result and the
// per-agent opinions.
func keyedGoldenDigest(t *testing.T, cfg sim.Config, p sim.Protocol) (sim.Result, string) {
	t.Helper()
	res, err := sim.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res)
	op := make([]byte, cfg.N)
	for a := range op {
		if bit, ok := p.Opinion(a); ok {
			op[a] = byte(bit)
		} else {
			op[a] = 2
		}
	}
	h.Write(op)
	return res, hex.EncodeToString(h.Sum(nil))
}

func goldenBroadcast(t *testing.T, n int) func() sim.Protocol {
	return func() sim.Protocol {
		p, err := core.NewBroadcast(core.DefaultParams(n, 0.3), channel.One)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

type keyedGoldenCase struct {
	name    string
	cfg     sim.Config
	proto   func() sim.Protocol
	kernels []sim.Kernel
	check   func(t *testing.T, res sim.Result)
	want    string
}

func runKeyedGolden(t *testing.T, tc keyedGoldenCase) {
	t.Helper()
	kernels := tc.kernels
	if kernels == nil {
		kernels = []sim.Kernel{sim.KernelAuto}
	}
	for _, k := range kernels {
		cfg := tc.cfg
		cfg.Kernel = k
		res, got := keyedGoldenDigest(t, cfg, tc.proto())
		t.Logf("%s kernel=%v: %+v", tc.name, k, res)
		if tc.check != nil {
			tc.check(t, res)
		}
		if got != tc.want {
			t.Errorf("%s kernel=%v: digest %s, want %s", tc.name, k, got, tc.want)
		}
	}
}

// TestKeyedGoldenScatter pins the scatter regime: per-sender drop and
// placement draws, count-based accept-one and addressed noise, with crash
// plans and a non-uniform channel.
func TestKeyedGoldenScatter(t *testing.T) {
	// n = 100003 with self-messages off draws placements on [0, n−1):
	// each draw is rejected with probability about (n−1)/2³², so the run's
	// several million placements include dozens of rejections.
	const nRej = 100003
	pRej := core.DefaultParams(nRej, 0.3)
	const nCrash = 20000
	pCrash := core.DefaultParams(nCrash, 0.3)
	const nHet = 10000
	pHet := core.DefaultParams(nHet, 0.3)
	cases := []keyedGoldenCase{
		{
			name: "drop-noself",
			cfg: sim.Config{
				N: nRej, Channel: channel.FromEpsilon(0.3), Seed: 71,
				AllowSelfMessages: false, DropProb: 0.05,
				MaxRounds: pRej.StageIRounds() + 30,
			},
			proto: goldenBroadcast(t, nRej),
			want:  "dab475a61b0fa0f887378710872bbaddd280bd36db7e06b2e93922b4a9c4d057",
		},
		{
			name: "crash",
			cfg: sim.Config{
				N: nCrash, Channel: channel.FromEpsilon(0.3), Seed: 72,
				AllowSelfMessages: false,
				Failures:          sim.NewRandomCrashesKeyed(nCrash, 0.1, 0, rng.NewKey(72), 0),
				MaxRounds:         pCrash.StageIRounds() + 40,
			},
			proto:   goldenBroadcast(t, nCrash),
			kernels: []sim.Kernel{sim.KernelPerAgent, sim.KernelBatched},
			want:    "b18184f719534690769a5c6d1b7338f3d108e7210429573311cc274c4de76c3b",
		},
		{
			name: "heterogeneous",
			cfg: sim.Config{
				N: nHet, Channel: channel.NewHeterogeneous(0.1, 0.2), Seed: 73,
				AllowSelfMessages: true,
				MaxRounds:         pHet.StageIRounds() + 40,
			},
			proto:   goldenBroadcast(t, nHet),
			kernels: []sim.Kernel{sim.KernelPerAgent, sim.KernelBatched},
			want:    "19827ffd940592cc0c5ab124b97dd1814fb3cda822ba3a3c8ea084beacc9d9a3",
		},
	}
	for _, tc := range cases {
		tc.check = func(t *testing.T, res sim.Result) {
			if res.Paths.PerMessage+res.Paths.PerAgent == 0 {
				t.Errorf("%s: no scatter rounds: %+v", tc.name, res.Paths)
			}
		}
		runKeyedGolden(t, tc)
	}
}

// TestKeyedGoldenTreeCrash pins the tree regime with a crash plan at an n
// whose tail bucket is not a power of two, on one worker and on two
// (n spans two virtual shards, so Stage II rounds run sharded).
func TestKeyedGoldenTreeCrash(t *testing.T) {
	const n = 4*8192 + 1234
	params := core.DefaultParams(n, 0.3)
	tc := keyedGoldenCase{
		name: "tree-crash",
		cfg: sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 74,
			AllowSelfMessages: true,
			Failures:          sim.NewRandomCrashesKeyed(n, 0.1, 0, rng.NewKey(74), 0),
			MaxRounds:         params.StageIRounds() + 80,
		},
		proto: goldenBroadcast(t, n),
		check: func(t *testing.T, res sim.Result) {
			if res.Paths.Sharded == 0 {
				t.Errorf("no sharded tree rounds: %+v", res.Paths)
			}
		},
		want: "dc8f683091eea057a2342597b35c6a8e9d53c77933287f5b9e4cd4ca7667b0b1",
	}
	for _, shards := range []int{1, 2} {
		tc.cfg.Shards = shards
		runKeyedGolden(t, tc)
	}
}

// TestKeyedGoldenSparseCrash pins the sparse walker on a crash-thinned
// broadcast.
func TestKeyedGoldenSparseCrash(t *testing.T) {
	const n = 1 << 16
	runKeyedGolden(t, keyedGoldenCase{
		name: "sparse-crash",
		cfg: sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 75,
			AllowSelfMessages: true,
			Failures:          sim.NewRandomCrashesKeyed(n, 0.95, 0, rng.NewKey(75), 0),
		},
		proto:   goldenBroadcast(t, n),
		kernels: []sim.Kernel{sim.KernelPerAgent, sim.KernelBatched},
		check: func(t *testing.T, res sim.Result) {
			if res.Paths.Sparse == 0 {
				t.Errorf("no sparse rounds: %+v", res.Paths)
			}
		},
		want: "4bb1f85be8fec928909340f6f5a1bde85ed69ab2593d16dd650fa147cb93236d",
	})
}

// TestKeyedGoldenAsyncSelfSyncCrash pins async self-sync (scatter rounds
// through the crash filter) with 10% of the agents down.
func TestKeyedGoldenAsyncSelfSyncCrash(t *testing.T) {
	const n = 1 << 13
	params := core.DefaultParams(n, 0.3)
	L := 3 * int(math.Ceil(math.Log2(n)))
	runKeyedGolden(t, keyedGoldenCase{
		name: "async-selfsync-crash",
		cfg: sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 76,
			AllowSelfMessages: true,
			Failures:          sim.NewRandomCrashesKeyed(n, 0.1, 0, rng.NewKey(76), 0),
		},
		proto: func() sim.Protocol {
			p, err := async.NewSelfSync(params, channel.One, L)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		kernels: []sim.Kernel{sim.KernelPerAgent, sim.KernelBatched},
		want:    "7c001198f718943d69093474c506ff792338b2c36502e299e9892491a128e738",
	})
}
