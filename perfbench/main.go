// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of internal/api, internal/sim,
// internal/service (through NewHTTPHandler) and internal/sweep, checks
// every output, and prints one JSON result line: the end-to-end metrics
// with --trace 0, or the per-layer metrics of a traced run with --trace 1.
//
// Run it from the repository root (the script builds it first):
//
//	bash perfbench/run.sh --workload bcast-128k --seed 1 --seconds 20 --trace 0
//
// Workloads, and why each was chosen:
//
//   - bcast-128k: one closed-loop client running crash-free keyed broadcast
//     at n = 2^17, ε = 0.3, kernel auto, shards = nproc. Each sample is a
//     complete run (Build, NewEngine, Run, encode). About two thirds of the
//     rounds run the sharded tree regime and collision dominates the
//     kernel, so tree hot-loop and multi-core changes show here; the
//     service and HTTP layers do nothing. The paper's million-agent size
//     takes about 26 s per run on a 2-core Xeon, too long for the repeated
//     runs a benchmark needs. At 2^18 a run took 5-10 s there, so a 20 s
//     window held two or three runs and their median spread 0.2 across
//     seeds; at 2^17 it holds six or seven.
//   - serve-mix: an open loop at a fixed rate through service.NewHTTPHandler
//     (POST /v1/runs, then GET /v1/runs/{id}/result?wait=1) on small runs
//     (n ∈ {256, 512, 1024}) of all four protocols, a quarter with
//     crashes. Half of the requests repeat another, after it finished
//     (cache hit) or sent along with it (single-flight join); the rest are
//     fresh. Per-request layers are a visible share of each request only
//     when runs are small, and hits and misses share this code, so a gain
//     on one path that costs the other shows.
//   - sweep-async: passes of sweep.Run through sweep.NewLocalRunner with
//     Concurrency = nproc over fresh seeds only: async self-sync at
//     n = 2^14 with crash probability 0 and 0.1 (scatter rounds, async bulk
//     delivery, quiet-span skipping, the crash filter), then broadcast at
//     n = 2^18 thinned by crash probability 0.97, whose Stage II runs the
//     sparse walker and which takes about a third of a pass. It bypasses
//     the tree that bcast-128k loads and the HTTP and cache paths that
//     serve-mix loads.
//
// Every request sets schedule "keyed" and shards explicitly, so a change
// of the service defaults cannot change what is measured. The workload
// seed fixes every input; seed 4242 is held out: no tuning used it, and a
// later performance claim must also hold on it.
//
// Before the result line the command prints an "env" line (nproc,
// GOMAXPROCS, Go version, CPU model, last-level cache size and the
// workload's working-set bytes) and a "digest" line: a SHA-256 over the
// canonical response bytes of one pass of the workload. The digest is the
// same for the traced and the untraced run of one seed. With --trace 1 the
// spans recorded at every layer boundary the benchmark calls are written
// to .bench_build/spans/<workload>-<seed>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An "operation" is a complete run on
// bcast-128k, one request on serve-mix (timed from its scheduled send) and
// one pass over both grids on sweep-async. On serve-mix, op_p50_ms is the
// geometric mean, over request classes (cache hit, or one run shape with
// its joins), of each class's median. The tail latency is a per-layer
// metric: only serve-mix has ten or more operations beyond its p99 in a
// run, and on the other two it is the slowest of a handful.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a layer
// it does not run (HTTP on bcast-128k, for example).
var perLayer = []metricDef{
	{"sim.ns_per_agent_round", "ns"},
	{"sim.msgs_per_s", "1/s"},
	{"sim.new_engine_s", "s"},
	{"sim.phase.senders_s", "s"},
	{"sim.phase.placement_s", "s"},
	{"sim.phase.collision_s", "s"},
	{"sim.phase.noise_s", "s"},
	{"sim.phase.accumulate_s", "s"},
	{"sim.phase.barrier_s", "s"},
	{"sim.parallel_speedup", "ratio"},
	{"sim.rounds", "count"},
	{"sim.msgs_sent", "count"},
	{"sim.msgs_accepted", "count"},
	{"sim.msgs_dropped", "count"},
	{"sim.accept_ratio", "ratio"},
	{"sim.rounds.per_agent", "count"},
	{"sim.rounds.quiet", "count"},
	{"sim.rounds.per_message", "count"},
	{"sim.rounds.dense", "count"},
	{"sim.rounds.sharded", "count"},
	{"sim.rounds.sparse", "count"},
	{"sim.quiet_spans", "count"},
	{"api.build_us", "us"},
	{"api.encode_us", "us"},
	{"api.hash_us", "us"},
	{"service.submit_hit_us", "us"},
	{"service.submit_miss_us", "us"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.kernel_p50_ms", "ms"},
	{"service.kernel_p99_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.executed", "count"},
	{"service.cache_hits", "count"},
	{"service.shared_flights", "count"},
	{"service.engines_built", "count"},
	{"service.engines_reused", "count"},
	{"service.rejected", "count"},
	{"service.dedup_ratio", "ratio"},
	{"service.engine_reuse_ratio", "ratio"},
	{"http.submit_us", "us"},
	{"http.result_us", "us"},
	{"sweep.runner_p50_s", "s"},
	{"sweep.cpu_util", "ratio"},
	{"proc.alloc_mib_per_op", "MiB"},
	{"proc.gc_pause_ms", "ms"},
	{"load.op_p99_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"self.bench_s", "s"},
	{"self.api_s", "s"},
	{"self.sim_s", "s"},
	{"self.service_s", "s"},
	{"self.http_s", "s"},
	{"self.sweep_s", "s"},
}

// scale sizes the workloads; the self-test runs them at toy scale.
type scale struct {
	bcastN      int
	serveNs     []int
	serveRate   float64 // requests per second of the serve-mix open loop
	sweepN      int
	sweepSeeds  int // seeds per self-sync cell per pass
	sparseN     int
	sparseSeeds int // seeds of the thinned broadcast per pass
	setups      int // set-up repetitions; setup_s is their median
}

var fullScale = scale{
	bcastN:      1 << 17,
	serveNs:     []int{256, 512, 1024},
	serveRate:   serveRate,
	sweepN:      1 << 14,
	sweepSeeds:  2,
	sparseN:     1 << 18,
	sparseSeeds: 16,
	setups:      15,
}

// config is one invocation.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	scale   scale
	tr      *tracer // records the traced passes; nil when untraced
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int64
	digest            string
	workingSet        uint64 // computed bytes of the workload's engines
	metrics           map[string]float64
}

// fail counts a failed operation or output check.
func (o *outcome) fail(err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
}

var workloads = map[string]func(*config) (*outcome, error){
	"bcast-128k":  runBcast,
	"serve-mix":   runServe,
	"sweep-async": runSweep,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report turns an outcome into the result line: every metric of the mode's
// table, by name and unit.
func report(o *outcome, trace bool) (resultLine, error) {
	defs, zeroOK := endToEnd, false
	if trace {
		defs, zeroOK = perLayer, true
	}
	line := resultLine{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !zeroOK {
			return line, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return line, nil
}

func main() {
	name := flag.String("workload", "", "workload: bcast-128k | serve-mix | sweep-async")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Every workload ends well within 180 s; a hang must not outlive that.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: the run exceeded 170 s")
		os.Exit(3)
	})
	runtime.GOMAXPROCS(runtime.NumCPU())

	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		scale:   fullScale,
	}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if cfg.trace {
		if err := writeSpans(cfg.tr, *name, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := report(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	env, _ := json.Marshal(map[string]any{"env": environment(o.workingSet)})
	fmt.Println(string(env))
	fmt.Printf("digest %s %s\n", *name, o.digest)
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

// writeSpans writes the recorded spans under .bench_build/spans.
func writeSpans(tr *tracer, workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tr.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+"-"+strconv.FormatUint(seed, 10)+".json"), raw, 0o644)
}

// environment records what the figures depend on. The working-set bytes
// are computed from heap growth while the workload's engines were built;
// they are not a measured memory-traffic figure.
func environment(workingSet uint64) map[string]any {
	cpu, llc := cpuModel(), llcBytes()
	return map[string]any{
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"cpu":                  cpu,
		"llc_bytes":            llc,
		"working_set_bytes":    workingSet,
		"working_set_fits_llc": llc > 0 && workingSet <= uint64(llc),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes reads the size of the highest-level cache of CPU 0, or 0.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	bestLevel := 0
	for _, d := range dirs {
		lvl, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lvl)))
		s := strings.TrimSpace(string(size))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = v*mult, level
		}
	}
	return best
}
