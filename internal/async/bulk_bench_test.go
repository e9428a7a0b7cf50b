package async

import (
	"testing"
	"time"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

// asyncBroadcast runs one full ModeKnownOffsets broadcast through the
// chosen kernel and returns the Result plus the per-agent-round cost in
// nanoseconds. As in the root kernel benchmarks, both kernels run the
// classical push convention (self-messages allowed), under which the
// batched kernel's aggregate recipient sampling applies to the Stage II
// send windows.
func asyncBroadcast(b *testing.B, n int, kernel sim.Kernel, seed uint64) (sim.Result, float64) {
	b.Helper()
	p, err := NewKnownOffsets(core.DefaultParams(n, 0.3), channel.One, defaultD(n))
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now() //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
	res, err := sim.Run(sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: seed, Kernel: kernel,
		AllowSelfMessages: true,
	}, p)
	if err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start) //breathe:walltime-ok benchmark wall-clock measurement, never folded into results
	return res, float64(elapsed.Nanoseconds()) / (float64(n) * float64(res.Rounds))
}

// BenchmarkAsyncKernelSpeedup runs the §3.1 broadcast at n = 10⁵ on both
// kernels back to back and reports the headline ratio. Asynchronous
// executions are dominated by quiescent dilation gaps where almost nobody
// sends, which is exactly where skipping the Θ(n) per-agent Send dispatch
// pays most — the PR 2 acceptance bar is ≥ 3×.
func BenchmarkAsyncKernelSpeedup(b *testing.B) {
	const n = 100_000
	for i := 0; i < b.N; i++ {
		_, refAR := asyncBroadcast(b, n, sim.KernelPerAgent, uint64(i))
		res, batchedAR := asyncBroadcast(b, n, sim.KernelAuto, uint64(i))
		if !res.AllCorrect(channel.One) {
			b.Fatal("async broadcast failed")
		}
		b.ReportMetric(refAR, "ref-ns/agent-round")
		b.ReportMetric(batchedAR, "batched-ns/agent-round")
		b.ReportMetric(refAR/batchedAR, "speedup")
	}
}

// BenchmarkAsyncBatchedBroadcast100k measures the batched kernel alone on
// the §3.1 scenario (the dilation makes per-round sender density far lower
// than the synchronous protocol's).
func BenchmarkAsyncBatchedBroadcast100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, nsPerAR := asyncBroadcast(b, 100_000, sim.KernelAuto, uint64(i))
		if !res.AllCorrect(channel.One) {
			b.Fatal("async broadcast failed")
		}
		b.ReportMetric(nsPerAR, "ns/agent-round")
	}
}
