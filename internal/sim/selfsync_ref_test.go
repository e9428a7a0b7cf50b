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

// TestSelfSyncMatchesReferenceStatistically: async self-sync with
// self-messages runs its Stage II rounds on the tree, with first contacts
// folded at the round's end, and its other rounds on the scatter.
// simtest.PerAgent shares the tree path, so only refRun checks it
// independently: across seeds the engine's mean accepted count is within
// 1% of the reference's, its success count within one run, and its
// mean first-contact count (agents that got a clock) within 0.5%, crash
// free and with 10% of the agents down.
func TestSelfSyncMatchesReferenceStatistically(t *testing.T) {
	const n, seeds = 1024, 8
	params := core.DefaultParams(n, 0.3)
	for _, crash := range []float64{0, 0.1} {
		type stat struct {
			accepted, contacts float64
			success            int
			tree               int64
		}
		measure := func(ref bool) stat {
			var st stat
			for seed := uint64(0); seed < seeds; seed++ {
				p, err := async.NewSelfSync(params, channel.One, async.DefaultPrelude(n))
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{N: n, Channel: channel.FromEpsilon(0.3), Seed: seed, AllowSelfMessages: true}
				if crash > 0 {
					cfg.Failures = sim.NewRandomCrashes(n, crash, 0, rng.NewKey(500+seed), 0)
				}
				var res sim.Result
				if ref {
					res = refRun(cfg, p)
				} else if res, err = sim.Run(cfg, p); err != nil {
					t.Fatal(err)
				}
				if res.Truncated || res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
					t.Fatalf("crash %v seed %d (ref=%v): truncated or unbalanced: %+v", crash, seed, ref, res)
				}
				st.accepted += float64(res.MessagesAccepted) / seeds
				st.contacts += float64(p.InformedDuringPrelude()) / seeds
				if res.Undecided == cfg.Failures.NumCrashed() && res.Opinions[channel.Zero] == 0 {
					st.success++
				}
				st.tree += res.Paths.Dense + res.Paths.Sharded + res.Paths.Sparse
			}
			return st
		}
		ref, got := measure(true), measure(false)
		if got.tree == 0 {
			t.Fatalf("crash %v: the engine ran no tree rounds", crash)
		}
		if math.Abs(got.accepted-ref.accepted)/ref.accepted > 0.01 {
			t.Errorf("crash %v: accepted mean %v deviates from the reference's %v", crash, got.accepted, ref.accepted)
		}
		if d := got.success - ref.success; d < -1 || d > 1 {
			t.Errorf("crash %v: success counts diverged: reference %d, engine %d of %d", crash, ref.success, got.success, seeds)
		}
		if math.Abs(got.contacts-ref.contacts)/ref.contacts > 0.005 {
			t.Errorf("crash %v: first-contact mean %v deviates from the reference's %v", crash, got.contacts, ref.contacts)
		}
		t.Logf("crash %v: accepted %.0f / %.0f, success %d / %d, first contacts %.1f / %.1f (engine / reference)",
			crash, got.accepted, ref.accepted, got.success, ref.success, got.contacts, ref.contacts)
	}
}
