// Golden digests of the keyed draw schedule. The identity suites compare
// execution paths with each other, so a change that moved bits on every
// path at once would pass them all; these pins compare each scenario
// with a fixed SHA-256 instead. A digest covers the full Result (message
// accounting, path counters, opinion counts) and every agent's final
// opinion. If a change legitimately alters the keyed draw schedule,
// regenerate the constants and say so in the commit.
package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
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

// A keyedGoldenCase with perAgent set also runs behind simtest.PerAgent,
// which must reach the same digest.
type keyedGoldenCase struct {
	name     string
	cfg      sim.Config
	proto    func() sim.Protocol
	perAgent bool
	check    func(t *testing.T, res sim.Result)
	want     string
}

func runKeyedGolden(t *testing.T, tc keyedGoldenCase) {
	t.Helper()
	for _, perAgent := range []bool{false, true} {
		if perAgent && !tc.perAgent {
			continue
		}
		p := tc.proto()
		if perAgent {
			p = simtest.PerAgent(p)
		}
		res, got := keyedGoldenDigest(t, tc.cfg, p)
		t.Logf("%s per-agent=%v, word path %s: %+v", tc.name, perAgent, rng.WordPath(), res)
		if tc.check != nil {
			tc.check(t, res)
		}
		if got != tc.want {
			t.Errorf("%s per-agent=%v: digest %s, want %s", tc.name, perAgent, got, tc.want)
		}
	}
}

// TestKeyedGoldenScalarWords re-runs the keyed goldens and
// FuzzKeyedRound's seed corpus in a child process whose GODEBUG turns
// AVX-512 off, so rng's Fill and Words and the tree sweep's resolve take
// their scalar loops: every digest must hold on both paths. Where the scalar loops already
// run, the tests themselves cover them.
func TestKeyedGoldenScalarWords(t *testing.T) {
	if rng.WordPath() == "scalar" {
		t.Skip("the scalar word path already runs in this process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestKeyedGolden|FuzzKeyedRound$)",
		"-test.skip=ScalarWords", "-test.count=1", "-test.v")
	godebug := "cpu.avx512f=off"
	if g := os.Getenv("GODEBUG"); g != "" {
		godebug = g + "," + godebug
	}
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("scalar word path: %v\n%s", err, out)
	}
	for _, want := range []string{"word path scalar", "--- PASS: TestKeyedGoldenScatter", "--- PASS: FuzzKeyedRound/"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("scalar word path: output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "word path avx512") {
		t.Fatalf("GODEBUG did not force the scalar word path:\n%s", out)
	}
}

// TestKeyedGoldenScatter pins the scatter regime: per-sender drop and
// placement draws, count-based accept-one and addressed noise, with drops
// and a crash plan.
func TestKeyedGoldenScatter(t *testing.T) {
	// n = 100003 with self-messages off draws placements on [0, n−1):
	// each draw is rejected with probability about (n−1)/2³², so the run's
	// several million placements include dozens of rejections.
	const nRej = 100003
	pRej := core.DefaultParams(nRej, 0.3)
	const nCrash = 20000
	pCrash := core.DefaultParams(nCrash, 0.3)
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
				Failures:          sim.NewRandomCrashes(nCrash, 0.1, 0, rng.NewKey(72), 0),
				MaxRounds:         pCrash.StageIRounds() + 40,
			},
			proto:    goldenBroadcast(t, nCrash),
			perAgent: true,
			want:     "b18184f719534690769a5c6d1b7338f3d108e7210429573311cc274c4de76c3b",
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
// (n clears shardMinN, so Stage II rounds run sharded).
func TestKeyedGoldenTreeCrash(t *testing.T) {
	const n = 4*8192 + 1234
	params := core.DefaultParams(n, 0.3)
	tc := keyedGoldenCase{
		name: "tree-crash",
		cfg: sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 74,
			AllowSelfMessages: true,
			Failures:          sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(74), 0),
			MaxRounds:         params.StageIRounds() + 80,
		},
		proto: goldenBroadcast(t, n),
		check: func(t *testing.T, res sim.Result) {
			if res.Paths.Sharded == 0 {
				t.Errorf("no sharded tree rounds: %+v", res.Paths)
			}
		},
		want: "be8cd7902caf07c10990064324f2a6e8c3a1acb43fc3f9a7437b96da96cfd4f5",
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
			Failures:          sim.NewRandomCrashes(n, 0.95, 0, rng.NewKey(75), 0),
		},
		proto:    goldenBroadcast(t, n),
		perAgent: true,
		check: func(t *testing.T, res sim.Result) {
			if res.Paths.Sparse == 0 {
				t.Errorf("no sparse rounds: %+v", res.Paths)
			}
		},
		want: "4bb1f85be8fec928909340f6f5a1bde85ed69ab2593d16dd650fa147cb93236d",
	})
}

// TestKeyedGoldenAsyncSelfSyncCrash pins async self-sync with 10% of the
// agents down: its prelude and Stage I on the scatter through the crash
// filter (the crashed agents never get a clock, and outnumber Stage I's
// listed senders, so Accumulators declines), its Stage II on the dense
// tree with the first-contact fold.
func TestKeyedGoldenAsyncSelfSyncCrash(t *testing.T) {
	const n = 1 << 13
	params := core.DefaultParams(n, 0.3)
	L := async.DefaultPrelude(n)
	runKeyedGolden(t, keyedGoldenCase{
		name: "async-selfsync-crash",
		cfg: sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 76,
			AllowSelfMessages: true,
			Failures:          sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(76), 0),
		},
		proto: func() sim.Protocol {
			p, err := async.NewSelfSync(params, channel.One, L)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		perAgent: true,
		check: func(t *testing.T, res sim.Result) {
			if res.Paths.PerMessage == 0 || res.Paths.Dense == 0 {
				t.Errorf("want scatter and dense tree rounds: %+v", res.Paths)
			}
		},
		want: "e2a6786689e05ef601eaae86f827a0952ab240680dd3275864de242f6c4c5191",
	})
}

// TestKeyedGoldenStageII pins the first Stage II decision: each run stops
// a few rounds after the first Stage II phase (2·Gamma rounds) has
// finalized, so its opinion counts are the outcome of one round of
// core.MajorityRule over every agent — on the tree (self-messages) and on
// the scatter (self-exclusion). The goldens above stop inside Stage I or
// end unanimous, where a change to the majority rule moves no pinned bit.
func TestKeyedGoldenStageII(t *testing.T) {
	const n = 20000
	params := core.DefaultParams(n, 0.3)
	stop := params.StageIRounds() + 2*params.Gamma + 4
	for _, tc := range []struct {
		name     string
		self     bool
		opinions [2]int
		want     string
	}{
		{"stage2-tree", true, [2]int{1599, 18399}, "78e2b1b9f6cf487396821b66d59d36b2caf8309812332537ccb8565053fa69bc"},
		{"stage2-scatter", false, [2]int{1273, 18726}, "132b21c16984737dc6098a7dc495b09e0a5c4a35f17c1cec28a8b01f876ba9e9"},
	} {
		runKeyedGolden(t, keyedGoldenCase{
			name: tc.name,
			cfg: sim.Config{
				N: n, Channel: channel.FromEpsilon(0.3), Seed: 77,
				AllowSelfMessages: tc.self, MaxRounds: stop,
			},
			proto:    goldenBroadcast(t, n),
			perAgent: true,
			check: func(t *testing.T, res sim.Result) {
				if params.K < 1 || res.Rounds != stop || res.Opinions != tc.opinions {
					t.Errorf("%s: K = %d, %d rounds (want %d), opinions %v (want %v)",
						tc.name, params.K, res.Rounds, stop, res.Opinions, tc.opinions)
				}
			},
			want: tc.want,
		})
	}
}
