package sim

import (
	"fmt"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim/simtest"
)

// sparseChatter is a sparse-activity engine-test protocol: of n agents
// only the first k ever send (their parity bit, every round), so the
// sender lists hold k ≪ n agents and keyed dense rounds qualify for the
// sparse walker. Reception accumulates into the packed counters, making
// the full inbox state — not just the Result — comparable across
// executors.
type sparseChatter struct {
	rounds int
	k      int
	// avoid, when set, takes the agents it crashes at round 0 out of the
	// sender set, which becomes the first k agents it spares: live
	// senders broadcasting into a crash-thinned population.
	avoid *CrashPlan
	last  int // the largest sender id
	n     int
	acc   []uint64
	zeros []int32
	ones  []int32
}

func (c *sparseChatter) Name() string { return "sparse-chatter" }
func (c *sparseChatter) Setup(n int, _ rng.Key) {
	c.n = n
	c.acc = make([]uint64, n)
	c.zeros = c.zeros[:0]
	c.ones = c.ones[:0]
	c.last = -1
	for a := 0; a < n && len(c.zeros)+len(c.ones) < c.k; a++ {
		if c.avoid != nil && c.avoid.Crashed(a, 0) {
			continue
		}
		if a%2 == 0 {
			c.zeros = append(c.zeros, int32(a))
		} else {
			c.ones = append(c.ones, int32(a))
		}
		c.last = a
	}
}
func (c *sparseChatter) Send(a, round int) (channel.Bit, bool) {
	return channel.Bit(a % 2), a <= c.last && (c.avoid == nil || !c.avoid.Crashed(a, 0))
}
func (c *sparseChatter) Receive(a int, b channel.Bit, round int) {
	c.acc[a] += uint64(b)<<32 + 1
}
func (c *sparseChatter) EndRound(int)        {}
func (c *sparseChatter) Done(round int) bool { return round >= c.rounds }
func (c *sparseChatter) Opinion(a int) (channel.Bit, bool) {
	total := c.acc[a] & (1<<32 - 1)
	if total == 0 {
		return 0, false
	}
	if 2*(c.acc[a]>>32) >= total {
		return channel.One, true
	}
	return channel.Zero, true
}

func (c *sparseChatter) BulkSenders(round int) ([]int32, []int32) {
	return c.zeros, c.ones
}
func (c *sparseChatter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, a := range receivers {
		c.acc[a] += uint64(bits[i])<<32 + 1
	}
}
func (c *sparseChatter) BulkAccumulate(int) bool    { return true }
func (c *sparseChatter) BulkAccumulators() []uint64 { return c.acc }

// sparseCfg is the shared scenario: k·64 < n with m ≥ denseMinMessages,
// so keyed dense rounds are sparse and the walker executes them.
func sparseCfg() Config {
	return Config{
		N: 65536, Channel: channel.FromEpsilon(0.3), Seed: 21,
		AllowSelfMessages: true,
	}
}

const sparseTestK = 300 // 300·64 = 19200 < 65536, and 300 ≥ denseMinMessages

func runSparse(t *testing.T, cfg Config) (Result, *sparseChatter) {
	t.Helper()
	return runSparseAs(t, cfg, false)
}

// runPerAgent is runSparse behind simtest.PerAgent: Send scans collect
// the senders and Receive calls take scatter deliveries.
func runPerAgent(t *testing.T, cfg Config) (Result, *sparseChatter) {
	t.Helper()
	return runSparseAs(t, cfg, true)
}

func runSparseAs(t *testing.T, cfg Config, perAgent bool) (Result, *sparseChatter) {
	t.Helper()
	p := &sparseChatter{rounds: 25, k: sparseTestK}
	var run Protocol = p
	if perAgent {
		run = simtest.PerAgent(p)
	}
	res, err := Run(cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

// runTreeOnly is runSparse with the walker switched off, so the dense
// tree executes the sparse rounds.
func runTreeOnly(t *testing.T, cfg Config) (Result, *sparseChatter) {
	t.Helper()
	keyedWalkerOff = true
	defer func() { keyedWalkerOff = false }()
	return runSparse(t, cfg)
}

// runPerAgentTreeOnly is runPerAgent with the walker switched off.
func runPerAgentTreeOnly(t *testing.T, cfg Config) (Result, *sparseChatter) {
	t.Helper()
	keyedWalkerOff = true
	defer func() { keyedWalkerOff = false }()
	return runPerAgent(t, cfg)
}

// TestSparseWalkerByteIdentity is the engine-level acceptance pin: the
// sparse walker, the dense tree (walker off), per-agent collection and
// every shard count produce identical Results — including the Paths
// accounting, which is a pure function of (listed k, n) — and
// identical packed inbox state.
func TestSparseWalkerByteIdentity(t *testing.T) {
	ref, refP := runSparse(t, sparseCfg())
	if ref.Paths.Sparse == 0 {
		t.Fatalf("reference run recorded no sparse rounds: %+v", ref.Paths)
	}
	if ref.Paths.Sparse != int64(ref.Rounds) {
		t.Fatalf("expected every round sparse-accounted, got %+v over %d rounds", ref.Paths, ref.Rounds)
	}
	variants := []struct {
		name string
		mut  func(*Config)
		run  func(*testing.T, Config) (Result, *sparseChatter)
	}{
		{"walker-off", func(c *Config) {}, runTreeOnly},
		{"shards-4", func(c *Config) { c.Shards = 4 }, runSparse},
		{"walker-off-shards-4", func(c *Config) { c.Shards = 4 }, runTreeOnly},
		{"per-agent", func(c *Config) {}, runPerAgent},
		{"per-agent-walker-off", func(c *Config) {}, runPerAgentTreeOnly},
	}
	for _, v := range variants {
		cfg := sparseCfg()
		v.mut(&cfg)
		got, gotP := v.run(t, cfg)
		if got != ref {
			t.Errorf("%s: Result diverged:\nref %+v\ngot %+v", v.name, ref, got)
		}
		for a := range refP.acc {
			if refP.acc[a] != gotP.acc[a] {
				t.Errorf("%s: acc[%d] = %#x, ref %#x", v.name, a, gotP.acc[a], refP.acc[a])
				break
			}
		}
	}
}

// TestSparseWalkerCrashByteIdentity repeats the identity pin with a keyed
// crash plan thinning the listed senders mid-run: the walker's per-slot
// crash masking must match the dense tree's occupied-slot scan exactly.
func TestSparseWalkerCrashByteIdentity(t *testing.T) {
	base := sparseCfg()
	base.Failures = NewRandomCrashes(base.N, 0.4, 10, rng.NewKey(base.Seed), 0)
	ref, refP := runSparse(t, base)
	if ref.Paths.Sparse == 0 {
		t.Fatalf("crash scenario recorded no sparse rounds: %+v", ref.Paths)
	}
	for _, v := range []struct {
		name string
		mut  func(*Config)
		run  func(*testing.T, Config) (Result, *sparseChatter)
	}{
		{"walker-off", func(c *Config) {}, runTreeOnly},
		{"per-agent", func(c *Config) {}, runPerAgent},
		{"shards-4", func(c *Config) { c.Shards = 4 }, runSparse},
	} {
		cfg := sparseCfg()
		cfg.Failures = NewRandomCrashes(cfg.N, 0.4, 10, rng.NewKey(cfg.Seed), 0)
		v.mut(&cfg)
		got, gotP := v.run(t, cfg)
		if got != ref {
			t.Errorf("%s: Result diverged under crashes:\nref %+v\ngot %+v", v.name, ref, got)
		}
		for a := range refP.acc {
			if refP.acc[a] != gotP.acc[a] {
				t.Errorf("%s: acc[%d] = %#x, ref %#x", v.name, a, gotP.acc[a], refP.acc[a])
				break
			}
		}
	}
}

// TestSparseWithFixedCrashPlan pins the crash semantics the dense path
// already guarantees, on the walker: crashed agents neither send nor
// receive, and message accounting balances.
func TestSparseWithFixedCrashPlan(t *testing.T) {
	crashed := []int{1, 5, 17, 299, 40000}
	cfg := sparseCfg()
	cfg.Failures = NewCrashAt(0, crashed...)
	res, p := runSparse(t, cfg)
	if res.Paths.Sparse == 0 {
		t.Fatalf("no sparse rounds: %+v", res.Paths)
	}
	// Four of the crashed ids are senders (1, 5, 17, 299 < k).
	liveSenders := sparseTestK - 4
	if want := int64(liveSenders * res.Rounds); res.MessagesSent != want {
		t.Fatalf("sent %d, want %d", res.MessagesSent, want)
	}
	for _, a := range crashed {
		if got := p.acc[a]; got != 0 {
			t.Fatalf("crashed agent %d received %#x", a, got)
		}
	}
	if res.MessagesAccepted+res.MessagesDropped != res.MessagesSent {
		t.Fatalf("conservation violated: %+v", res)
	}
}

// TestSparseRegimeBoundary pins the fixed predicate at its exact
// boundary: k listed senders with k·64 < n is sparse, k·64 == n is not.
func TestSparseRegimeBoundary(t *testing.T) {
	for _, tc := range []struct {
		n, k   int
		sparse bool
	}{
		{65536, 1023, true},  // 1023·64 < 65536
		{65536, 1024, false}, // 1024·64 == 65536: not sparse
	} {
		cfg := sparseCfg()
		cfg.N = tc.n
		p := &sparseChatter{rounds: 8, k: tc.k}
		res, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		gotSparse := res.Paths.Sparse > 0
		if gotSparse != tc.sparse {
			t.Errorf("n=%d k=%d: sparse rounds %d, want sparse=%v (paths %+v)",
				tc.n, tc.k, res.Paths.Sparse, tc.sparse, res.Paths)
		}
		if tc.sparse && res.Paths.Sparse != int64(res.Rounds) {
			t.Errorf("n=%d k=%d: only %d of %d rounds sparse", tc.n, tc.k, res.Paths.Sparse, res.Rounds)
		}
	}
}

// TestSparsePathString pins the paths rendering megasim prints: sparse
// rounds appear by name.
func TestSparsePathString(t *testing.T) {
	res, _ := runSparse(t, sparseCfg())
	s := res.Paths.String()
	if want := fmt.Sprintf("sparse:%d", res.Paths.Sparse); !containsToken(s, want) {
		t.Fatalf("Paths.String() = %q, want token %q", s, want)
	}
	if res.Paths.Primary() != "sparse" {
		t.Fatalf("Primary() = %q, want sparse", res.Paths.Primary())
	}
}

func containsToken(s, tok string) bool {
	for i := 0; i+len(tok) <= len(s); i++ {
		if s[i:i+len(tok)] == tok {
			return true
		}
	}
	return false
}
