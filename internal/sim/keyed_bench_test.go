package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// BenchmarkKeyedDenseRound measures the tree regime on its design
// workload: one million agents all sending every round (the shape of the
// protocol's Stage II), swept serially. The msgs/round metric is the
// per-round message volume; ns/op divided by it gives the per-message
// cost.
func BenchmarkKeyedDenseRound(b *testing.B) {
	p := &bulkChatter{rounds: 1 << 30}
	cfg := Config{
		N: 1_000_000, Channel: channel.NewBSC(0.2), Seed: 1,
		AllowSelfMessages: true, Shards: 1,
		MaxRounds: 1 << 30,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p.rounds = b.N
	b.ResetTimer()
	res := e.Run(p)
	b.StopTimer()
	b.ReportMetric(float64(res.MessagesSent)/float64(b.N), "msgs/round")
}

// BenchmarkShardedKernelSpeedup runs the million-agent all-senders
// workload once with a single worker and once with GOMAXPROCS workers
// sweeping the tree's buckets, and reports the wall-clock ratio. On few
// cores the ratio degrades toward 1 and the benchmark only reports it.
func BenchmarkShardedKernelSpeedup(b *testing.B) {
	const n, rounds = 1_000_000, 40
	run := func(shards int) float64 {
		e, err := NewEngine(Config{
			N: n, Channel: channel.NewBSC(0.2), Seed: 1,
			AllowSelfMessages: true, Shards: shards, MaxRounds: 1 << 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := &bulkChatter{rounds: rounds}
		start := time.Now() //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
		e.Run(p)
		wall := time.Since(start) //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
		if s := e.Paths().Sharded; s != rounds {
			b.Fatalf("shards=%d: %d of %d rounds sharded", shards, s, rounds)
		}
		return float64(wall.Nanoseconds()) / (float64(n) * rounds)
	}
	for i := 0; i < b.N; i++ {
		serialAR := run(1)
		parallelAR := run(0)
		b.ReportMetric(serialAR, "serial-ns/agent-round")
		b.ReportMetric(parallelAR, "sharded-ns/agent-round")
		b.ReportMetric(serialAR/parallelAR, "speedup")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
	}
}

// BenchmarkKeyedScatterRound measures one keyed scatter round at n = 2^14
// with 10,000 live senders (self-messages off, so every round scatters),
// without and with 10% of the agents crashed. One op is one round.
func BenchmarkKeyedScatterRound(b *testing.B) {
	const n, k = 1 << 14, 10000
	for _, crash := range []float64{0, 0.1} {
		b.Run(fmt.Sprintf("crash=%g", crash), func(b *testing.B) {
			cfg := Config{
				N: n, Channel: channel.NewBSC(0.2), Seed: 1,
				MaxRounds: 1 << 30,
			}
			if crash > 0 {
				cfg.Failures = NewRandomCrashes(n, crash, 0, rng.NewKey(1), 0)
			}
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			p := &sparseChatter{rounds: b.N, k: k}
			b.ReportAllocs()
			b.ResetTimer()
			res := e.Run(p)
			b.StopTimer()
			if res.Paths.PerMessage != int64(b.N) {
				b.Fatalf("%d of %d rounds scattered", res.Paths.PerMessage, b.N)
			}
		})
	}
}

// BenchmarkKeyedTreeRound measures one serial keyed tree round at
// n = 2^17 with every agent sending. One op is one round.
func BenchmarkKeyedTreeRound(b *testing.B) {
	const n = 1 << 17
	e, err := NewEngine(Config{
		N: n, Channel: channel.NewBSC(0.2), Seed: 1,
		AllowSelfMessages: true, Shards: 1,
		MaxRounds: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := &bulkChatter{rounds: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(p)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(n)*float64(b.N)), "ns/agent-round")
}

// BenchmarkKeyedSparseRound measures one sparse-walker round at n = 2^18
// with 2000 live senders (self-messages on, so the round is tree-eligible
// and k·64 < n makes it sparse), without crashes and with 95% of the
// agents crashed — the senders are drawn from the survivors, so most
// arrivals land on crashed receivers and the walker's compaction drops
// them. One op is one round.
func BenchmarkKeyedSparseRound(b *testing.B) {
	const n, k = 1 << 18, 2000
	for _, crash := range []float64{0, 0.95} {
		b.Run(fmt.Sprintf("crash=%g", crash), func(b *testing.B) {
			cfg := Config{
				N: n, Channel: channel.NewBSC(0.2), Seed: 1,
				AllowSelfMessages: true, MaxRounds: 1 << 30,
			}
			p := &sparseChatter{rounds: b.N, k: k}
			if crash > 0 {
				plan := NewRandomCrashes(n, crash, 0, rng.NewKey(1), 0)
				cfg.Failures = plan
				p.avoid = plan
			}
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			res := e.Run(p)
			b.StopTimer()
			if res.Paths.Sparse != int64(b.N) {
				b.Fatalf("%d of %d rounds sparse", res.Paths.Sparse, b.N)
			}
		})
	}
}
