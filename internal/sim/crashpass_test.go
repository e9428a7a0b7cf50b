package sim

import (
	"fmt"
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim/simtest"
)

// crashPassPlan is one crash plan of the crash-pass tests.
type crashPassPlan struct {
	name string
	plan *CrashPlan
}

// crashPassPlans lists the plans the crash passes must agree with
// Crashed on, for a population of n agents and a plan round.
func crashPassPlans(n, round int) []crashPassPlan {
	key := rng.NewKey(31)
	return []crashPassPlan{
		{"none", nil},
		{"empty-crashat", NewCrashAt(round)},
		{"empty-random", NewRandomCrashes(n, 0, round, key, 0)},
		// Spans only the ids below n/2: every id past them stays live.
		{"crashat-short", NewCrashAt(round, 1, 2, 63, 64, 65, n/2-1)},
		{"random-0.3", NewRandomCrashes(n, 0.3, round, key, 0)},
		{"all-but-protected", NewRandomCrashes(n, 1, round, key, 0)},
		// Sampled for more ids than the population: the bits past n
		// belong to no agent and must not reach a bucket's slots.
		{"wider-than-n", NewRandomCrashes(n+100, 0.5, round, key, 0)},
	}
}

// crashPassSizes are populations that are not a multiple of 64, the
// second with a tail bucket of 1234 slots behind four full ones.
var crashPassSizes = []int{1000, 4*denseWidth + 1234}

// TestCrashPassMatchesCrashed runs every word-level crash pass — the bulk
// sender filter, the per-agent collection, the scatter's and the
// walker's receiver compactions and the tree's bucket pass — on inputs
// drawn at random and compares each with plan.Crashed applied agent by
// agent, in rounds before, at and after the plan's round. A pass runs
// only when activeWords is non-nil, as in the kernel.
func TestCrashPassMatchesCrashed(t *testing.T) {
	r := seeded(17)
	for _, n := range crashPassSizes {
		for _, round := range []int{0, 3} {
			for _, pc := range crashPassPlans(n, round) {
				for _, g := range []int{round - 1, round, round + 2} {
					if g < 0 {
						continue
					}
					name := fmt.Sprintf("n=%d/%s/round=%d/at=%d", n, pc.name, round, g)
					crashed := func(a int) bool { return pc.plan != nil && pc.plan.Crashed(a, g) }
					words := pc.plan.activeWords(g)
					if (words != nil) != (pc.plan != nil && g >= round && pc.plan.NumCrashed() > 0) {
						t.Fatalf("%s: activeWords non-nil = %v", name, words != nil)
					}
					checkSenderPasses(t, name, r, n, crashed, words)
					checkReceiverPasses(t, name, r, n, crashed, words)
				}
			}
		}
	}
}

// perm returns a uniform random permutation of [0, n), by inside-out
// Fisher–Yates.
func perm(r *rng.RNG, n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := intn(r, i+1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// checkSenderPasses compares filterLive over a shuffled sender list, and
// over a Send scan (simtest.PerAgent's sender lists) of a population where
// every agent sends, with the agent-by-agent rule.
func checkSenderPasses(t *testing.T, name string, r *rng.RNG, n int, crashed func(int) bool, words []uint64) {
	t.Helper()
	senders := make([]int32, n)
	for i, a := range perm(r, n) {
		senders[i] = int32(a)
	}
	var want []int32
	for _, s := range senders {
		if !crashed(int(s)) {
			want = append(want, s)
		}
	}
	got := senders
	if words != nil {
		got = filterLive([]int32{-1}, senders, words)
		if got[0] != -1 {
			t.Fatalf("%s: filterLive overwrote the list it appends to", name)
		}
		got = got[1:]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: filterLive kept %d senders, want %d", name, len(got), len(want))
	}

	p := simtest.PerAgent(&bulkChatter{})
	p.Setup(n, rng.Key{})
	zeros, ones := p.BulkSenders(0)
	if words != nil {
		zeros, ones = filterLive(nil, zeros, words), filterLive(nil, ones, words)
	}
	var wantZ, wantO []int32
	for a := 0; a < n; a++ {
		if crashed(a) {
			continue
		}
		if a%2 == 0 {
			wantZ = append(wantZ, int32(a))
		} else {
			wantO = append(wantO, int32(a))
		}
	}
	if !slices.Equal(zeros, wantZ) || !slices.Equal(ones, wantO) {
		t.Fatalf("%s: the filtered Send scan kept %d+%d senders, want %d+%d", name, len(zeros), len(ones), len(wantZ), len(wantO))
	}
}

// checkReceiverPasses compares the scatter's compaction over a random
// touched list, and per bucket the tree's pass over a random inbox and
// the walker's compaction over random touched slots, with the
// agent-by-agent rule: a crashed receiver's word is zeroed and it leaves
// the list; every other word and the live order are untouched.
func checkReceiverPasses(t *testing.T, name string, r *rng.RNG, n int, crashed func(int) bool, words []uint64) {
	t.Helper()
	acc := make([]int32, 0, n/3)
	for _, a := range perm(r, n)[:n/3] {
		acc = append(acc, int32(a))
	}
	inbox := make([]uint64, n+1)
	for _, a := range acc {
		inbox[a] = r.Uint64() | 1
	}
	wantInbox := slices.Clone(inbox)
	var wantAcc []int32
	for _, a := range acc {
		if crashed(int(a)) {
			wantInbox[a] = 0
		} else {
			wantAcc = append(wantAcc, a)
		}
	}
	if words != nil {
		acc = acc[:scatterDropCrashed(inbox, acc, words)]
	}
	if !slices.Equal(acc, wantAcc) || !slices.Equal(inbox, wantInbox) {
		t.Fatalf("%s: scatter compaction kept %d receivers, want %d", name, len(acc), len(wantAcc))
	}

	for blo := 0; blo < n; blo += denseWidth {
		bsize := min(denseWidth, n-blo)
		tree := make([]uint32, bsize)
		for i := range tree {
			if intn(r, 2) == 0 {
				tree[i] = uint32(r.Uint64()) | 1
			}
		}
		wantTree := slices.Clone(tree)
		for i := range wantTree {
			if crashed(blo + i) {
				wantTree[i] = 0
			}
		}
		if words != nil {
			treeDropCrashed(tree, words, blo)
		}
		if !slices.Equal(tree, wantTree) {
			t.Fatalf("%s: tree pass over the bucket at %d disagrees with Crashed", name, blo)
		}

		walk := make([]uint32, bsize)
		var touched []int32
		for _, i := range perm(r, bsize)[:bsize/4] {
			touched = append(touched, int32(i))
			walk[i] = uint32(r.Uint64()) | 1
		}
		wantWalk := slices.Clone(walk)
		var wantTouched []int32
		for _, i := range touched {
			if crashed(blo + int(i)) {
				wantWalk[i] = 0
			} else {
				wantTouched = append(wantTouched, i)
			}
		}
		if words != nil {
			touched = touched[:walkDropCrashed(walk, touched, words, uint(blo))]
		}
		if !slices.Equal(touched, wantTouched) || !slices.Equal(walk, wantWalk) {
			t.Fatalf("%s: walker compaction in the bucket at %d kept %d slots, want %d", name, blo, len(touched), len(wantTouched))
		}
	}
}

// TestCrashPassEngineMatchesCrashed runs the scatter, tree and walker
// regimes under every crash plan, with the crash round at 0 and mid-run,
// on bulk and per-agent collection (simtest.PerAgent) with one shard
// and with four. Against plan.Crashed applied agent by agent: the run
// sends exactly the live senders' messages, a crashed agent's
// accumulator never moves from its crash round on, and before a mid-run
// crash round the agents it will take down still receive. Both collection mechanisms and both shard
// counts return the same Result.
func TestCrashPassEngineMatchesCrashed(t *testing.T) {
	const rounds = 6
	for _, n := range crashPassSizes {
		for _, round := range []int{0, 3} {
			for _, pc := range crashPassPlans(n, round) {
				crashed := func(a, g int) bool { return pc.plan != nil && pc.plan.Crashed(a, g) }
				for _, rc := range []struct {
					name  string
					self  bool
					proto func() Protocol
				}{
					{"scatter", false, func() Protocol { return &bulkChatter{rounds: rounds} }},
					{"tree", true, func() Protocol { return &bulkChatter{rounds: rounds} }},
					{"walker", true, func() Protocol { return &sparseChatter{rounds: rounds, k: 300} }},
				} {
					var ref Result
					for ci, c := range []struct {
						perAgent bool
						shards   int
					}{{false, 1}, {false, 4}, {true, 1}, {true, 4}} {
						name := fmt.Sprintf("n=%d/%s/round=%d/%s/per-agent=%v/shards=%d", n, pc.name, round, rc.name, c.perAgent, c.shards)
						p := rc.proto()
						var run Protocol = p
						if c.perAgent {
							run = simtest.PerAgent(p)
						}
						var prev []uint64
						early := 0
						cfg := Config{
							N: n, Channel: channel.FromEpsilon(0.3), Seed: 7,
							AllowSelfMessages: rc.self, Shards: c.shards,
							Failures: pc.plan,
							Observer: func(g int, _ *Engine) {
								acc := p.BulkAccumulators()
								if prev == nil {
									prev = make([]uint64, n)
								}
								for a, v := range acc {
									if v == prev[a] {
										continue
									}
									if crashed(a, g) {
										t.Errorf("%s: crashed agent %d received in round %d", name, a, g)
									}
									if crashed(a, round) {
										early++
									}
								}
								copy(prev, acc)
							},
						}
						res, err := Run(cfg, run)
						if err != nil {
							t.Fatal(err)
						}
						var sent int64
						for g := 0; g < res.Rounds; g++ {
							for a := 0; a < n; a++ {
								if _, ok := p.Send(a, g); ok && !crashed(a, g) {
									sent++
								}
							}
						}
						if res.MessagesSent != sent {
							t.Errorf("%s: %d messages sent, the live senders send %d", name, res.MessagesSent, sent)
						}
						if round > 0 && pc.plan != nil && pc.plan.NumCrashed() > n/10 && early == 0 {
							t.Errorf("%s: no agent of the plan received before its crash round", name)
						}
						if ci == 0 {
							ref = res
						} else if res != ref {
							t.Errorf("%s: result diverged from the first configuration:\n got %+v\nwant %+v", name, res, ref)
						}
					}
				}
			}
		}
	}
}
