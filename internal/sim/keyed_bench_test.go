package sim

import (
	"fmt"
	"testing"
	"time"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// BenchmarkKeyedDenseRound measures the keyed tree regime on the dense
// design workload (one million agents all sending, serial execution) —
// directly comparable to BenchmarkDenseRound, which runs the identical
// workload under the legacy schedule.
func BenchmarkKeyedDenseRound(b *testing.B) {
	p := &bulkChatter{rounds: 1 << 30}
	cfg := Config{
		N: 1_000_000, Channel: channel.NewBSC(0.2), Seed: 1,
		AllowSelfMessages: true, Kernel: KernelBatched, Shards: 1,
		MaxRounds: 1 << 30, DrawSchedule: ScheduleKeyed,
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

// BenchmarkKeyedDenseOverhead runs the million-agent all-senders workload
// serially under both draw schedules and reports keyed/legacy − 1 in
// ns/agent-round. The keyed schedule's acceptance budget is ≤ +15% on
// this path: addressed fmix64 draws replace resident xoshiro streams, and
// the per-bucket split adds two small binomials per bucket per round.
func BenchmarkKeyedDenseOverhead(b *testing.B) {
	const n, rounds = 1_000_000, 40
	run := func(ds DrawSchedule) float64 {
		e, err := NewEngine(Config{
			N: n, Channel: channel.NewBSC(0.2), Seed: 1,
			AllowSelfMessages: true, Kernel: KernelBatched,
			Shards: 1, MaxRounds: 1 << 30, DrawSchedule: ds,
		})
		if err != nil {
			b.Fatal(err)
		}
		p := &bulkChatter{rounds: rounds}
		start := time.Now() //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
		e.Run(p)
		wall := time.Since(start) //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
		if e.ShardedRounds() != rounds {
			b.Fatalf("schedule=%d: %d of %d rounds sharded", ds, e.ShardedRounds(), rounds)
		}
		return float64(wall.Nanoseconds()) / (float64(n) * rounds)
	}
	for i := 0; i < b.N; i++ {
		legacyAR := run(ScheduleLegacy)
		keyedAR := run(ScheduleKeyed)
		b.ReportMetric(legacyAR, "legacy-ns/agent-round")
		b.ReportMetric(keyedAR, "keyed-ns/agent-round")
		b.ReportMetric(keyedAR/legacyAR-1, "overhead")
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
				Kernel: KernelBatched, MaxRounds: 1 << 30, DrawSchedule: ScheduleKeyed,
			}
			if crash > 0 {
				cfg.Failures = NewRandomCrashesKeyed(n, crash, 0, rng.NewKey(1), 0)
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
		AllowSelfMessages: true, Kernel: KernelBatched, Shards: 1,
		MaxRounds: 1 << 30, DrawSchedule: ScheduleKeyed,
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
				AllowSelfMessages: true, Kernel: KernelBatched,
				MaxRounds: 1 << 30, DrawSchedule: ScheduleKeyed,
			}
			p := &sparseChatter{rounds: b.N, k: k}
			if crash > 0 {
				plan := NewRandomCrashesKeyed(n, crash, 0, rng.NewKey(1), 0)
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
