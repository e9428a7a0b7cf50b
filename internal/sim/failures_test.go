package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// crashedIDs lists the agents of [0, n) that plan has down at round.
func crashedIDs(plan *CrashPlan, n, round int) []int {
	var ids []int
	for a := 0; a < n; a++ {
		if plan.Crashed(a, round) {
			ids = append(ids, a)
		}
	}
	return ids
}

// idsDigest is the SHA-256 of ids as consecutive little-endian uint64s.
func idsDigest(ids []int) string {
	buf := make([]byte, 0, 8*len(ids))
	for _, a := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestCrashSetGolden pins the exact membership of the sampler's crash
// sets, so a change of representation cannot silently move them. The
// n = 20000, p = 0.1 point is the megasim crash scenario at seed 1.
func TestCrashSetGolden(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		p         float64
		seed      uint64
		protected []int
		count     int
		digest    string
	}{
		{"keyed/n1000", 1000, 0.3, 23, []int{0},
			308, "64d7abd516f695daeacb962b31549cbe8103b0614e01dbc1327723de209229e6"},
		{"keyed/n20000", 20000, 0.1, 1, []int{0},
			1964, "4b2175317edfa4167b8b1a0b6f0e901b23acac99157bdd53dbe94b0cf8eb7bc4"},
		{"keyed/n2^18", 1 << 18, 0.97, 99, []int{0, 7},
			254275, "3c78069e43fd1566be54b769f10cbc16879b4b8ec821d2ff5f347fd8bf6d269d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan := NewRandomCrashes(c.n, c.p, 0, rng.NewKey(c.seed), c.protected...)
			ids := crashedIDs(plan, c.n, 0)
			if got := plan.NumCrashed(); got != c.count || len(ids) != c.count {
				t.Errorf("NumCrashed = %d, %d ids listed, want %d", got, len(ids), c.count)
			}
			if got := idsDigest(ids); got != c.digest {
				t.Errorf("crash set digest = %s, want %s", got, c.digest)
			}
		})
	}
}

// refCrashSet is the map-backed crash set the sampler once built: the
// reference its packed representation must reproduce query for query.
func refCrashSet(n int, p float64, seed uint64, protected []int) map[int]bool {
	keep := make(map[int]bool, len(protected))
	for _, a := range protected {
		keep[a] = true
	}
	thresh := channel.FlipThreshold53(p)
	cell := rng.NewKey(seed).Cell(rng.StreamCrash, 0)
	m := make(map[int]bool)
	for a := 0; a < n; a++ {
		if !keep[a] && cell.Uint64(uint64(a))>>11 < thresh {
			m[a] = true
		}
	}
	return m
}

// probeAgents returns the ids a parity check queries for an n-agent plan:
// every agent, plus negative and out-of-range ids around the word edges.
func probeAgents(n int) []int {
	ids := []int{math.MinInt, -1 << 40, -65, -64, -63, -1}
	for a := 0; a < n; a++ {
		ids = append(ids, a)
	}
	return append(ids, n, n+1, n+63, n+64, n+65, 1<<40, math.MaxInt)
}

// TestRandomCrashes checks the sampler against the map-backed reference
// on the edge cases of a packed set: sizes that are not a multiple of 64
// or of any sampling batch, empty and full sets, and duplicate or
// out-of-range protected ids, probing ids outside [0, n) and rounds before
// the plan's round (crashes are permanent from it on).
func TestRandomCrashes(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		p         float64
		round     int
		protected []int
	}{
		{"n1000", 1000, 0.3, 0, []int{0}},
		{"empty-n0", 0, 0.5, 0, []int{0}},
		{"n1-all", 1, 1, 0, nil},
		{"n63", 63, 0.5, 2, []int{0}},
		{"n64", 64, 0.5, 2, []int{63}},
		{"n65", 65, 0.5, 2, []int{64}},
		{"n4097", 4097, 0.4, 7, []int{0, 4096}},
		{"p0", 1000, 0, 0, []int{0}},
		{"p1-dup-protected", 1000, 1, 3, []int{0, 0, 999, 999, -1, -64, 1000, 5000}},
		{"dup-protected", 777, 0.6, 1, []int{5, 5, 5, 130, 130, -7, 777, 1 << 30}},
	}
	for _, c := range cases {
		t.Run(c.name+"/keyed", func(t *testing.T) {
			const seed = 41
			plan := NewRandomCrashes(c.n, c.p, c.round, rng.NewKey(seed), c.protected...)
			ref := refCrashSet(c.n, c.p, seed, c.protected)
			if plan.NumCrashed() != len(ref) {
				t.Fatalf("NumCrashed = %d, want %d", plan.NumCrashed(), len(ref))
			}
			for _, a := range probeAgents(c.n) {
				for _, g := range []int{c.round - 1, c.round, c.round + 100} {
					want := g >= c.round && ref[a]
					if got := plan.Crashed(a, g); got != want {
						t.Fatalf("Crashed(%d, %d) = %v, want %v", a, g, got, want)
					}
				}
			}
		})
	}
}

// TestCrashAtCountsEachAgentOnce checks NewCrashAt against the set its ids
// denote: a repeated id counts once, ids past the largest listed one and
// rounds before the plan's round report no crash, and a negative id is
// rejected.
func TestCrashAtCountsEachAgentOnce(t *testing.T) {
	cases := []struct {
		round  int
		agents []int
	}{
		{0, nil},
		{0, []int{0}},
		{4, []int{3, 3, 70, 0, 0, 200, 63, 64, 64}},
		{10, []int{127, 127, 127}},
	}
	for _, c := range cases {
		plan := NewCrashAt(c.round, c.agents...)
		ref := make(map[int]bool)
		for _, a := range c.agents {
			ref[a] = true
		}
		if plan.NumCrashed() != len(ref) {
			t.Errorf("NewCrashAt(%d, %v): NumCrashed = %d, want %d", c.round, c.agents, plan.NumCrashed(), len(ref))
		}
		for _, a := range probeAgents(256) {
			for _, g := range []int{c.round - 1, c.round, c.round + 100} {
				want := g >= c.round && ref[a]
				if got := plan.Crashed(a, g); got != want {
					t.Fatalf("NewCrashAt(%d, %v).Crashed(%d, %d) = %v, want %v", c.round, c.agents, a, g, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative agent id did not panic")
		}
	}()
	NewCrashAt(0, 1, -1)
}

// BenchmarkNewRandomCrashes samples the crash-thinned broadcast's
// plan: n = 2^18 agents, 97% of them down.
func BenchmarkNewRandomCrashes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRandomCrashes(1<<18, 0.97, 0, rng.NewKey(1), 0)
	}
}

// BenchmarkFilterLive filters a round's full sender list of n = 2^16
// agents against a plan with 10% of them down.
func BenchmarkFilterLive(b *testing.B) {
	const n = 1 << 16
	plan := NewRandomCrashes(n, 0.1, 0, rng.NewKey(1), 0)
	senders := make([]int32, n)
	for i := range senders {
		senders[i] = int32(i)
	}
	dst := make([]int32, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = filterLive(dst[:0], senders, plan.activeWords(0))
	}
}
