package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// checkResponse applies the output checks every run must pass: message
// accounting conserves, the kernel paths account for every round, the run
// neither truncated nor canceled, and a crash-free run ends unanimous on
// the broadcast opinion (the paper's success criterion).
func checkResponse(r *api.RunResponse) error {
	switch {
	case r.MessagesAccepted+r.MessagesDropped != r.MessagesSent:
		return fmt.Errorf("run %s: accepted %d + dropped %d != sent %d",
			r.Hash, r.MessagesAccepted, r.MessagesDropped, r.MessagesSent)
	case r.Paths.Total() != int64(r.Rounds):
		return fmt.Errorf("run %s: paths total %d != rounds %d", r.Hash, r.Paths.Total(), r.Rounds)
	case r.Truncated || r.Canceled:
		return fmt.Errorf("run %s: truncated %t, canceled %t", r.Hash, r.Truncated, r.Canceled)
	case r.Request.CrashProb == 0 && !r.Unanimous:
		return fmt.Errorf("run %s: crash-free run is not unanimous (correct fraction %v)", r.Hash, r.CorrectFraction)
	}
	return nil
}

// simCounts sums the exact per-run counts of a set of responses.
type simCounts struct {
	rounds, sent, accepted, dropped, agentRounds int64
	paths                                        [6]int64
}

func (c *simCounts) add(r *api.RunResponse) {
	c.rounds += int64(r.Rounds)
	c.sent += r.MessagesSent
	c.accepted += r.MessagesAccepted
	c.dropped += r.MessagesDropped
	c.agentRounds += int64(r.Rounds) * int64(r.Request.N)
	p := r.Paths
	for i, v := range []int64{p.PerAgent, p.Quiet, p.PerMessage, p.Dense, p.Sharded, p.Sparse} {
		c.paths[i] += v
	}
}

func (c *simCounts) report(m map[string]float64) {
	m["sim.rounds"] = float64(c.rounds)
	m["sim.msgs_sent"] = float64(c.sent)
	m["sim.msgs_accepted"] = float64(c.accepted)
	m["sim.msgs_dropped"] = float64(c.dropped)
	if c.sent > 0 {
		m["sim.accept_ratio"] = float64(c.accepted) / float64(c.sent)
	}
	for i, name := range []string{"per_agent", "quiet", "per_message", "dense", "sharded", "sparse"} {
		m["sim.rounds."+name] = float64(c.paths[i])
	}
}

// procSample is a reading of the process counters a timed window is
// measured against.
type procSample struct {
	at          time.Time
	cpu         time.Duration // user + system
	alloc       uint64
	gcPauseNs   uint64
	rusageValid bool
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{at: time.Now(), alloc: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.rusageValid = true
	}
	return s
}

// reportProc adds the process metrics of the window [a, b] over ops
// operations.
func reportProc(m map[string]float64, a, b procSample, ops int) {
	if ops > 0 {
		m["proc.alloc_mib_per_op"] = float64(b.alloc-a.alloc) / float64(ops) / (1 << 20)
	}
	m["proc.gc_pause_ms"] = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
	if wall := b.at.Sub(a.at); wall > 0 && a.rusageValid && b.rusageValid {
		m["sweep.cpu_util"] = (b.cpu - a.cpu).Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repeatSetup builds a workload's set-up n times, releasing all but the
// last build, which it returns with the median build time in seconds and
// the live heap the last build added.
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (last T, seconds float64, workingSet uint64, err error) {
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			debug.FreeOSMemory() // the released set-up's memory is not this one's
		}
		base := liveHeap()
		t0 := time.Now()
		if last, err = build(); err != nil {
			return last, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		workingSet = growth(base, liveHeap())
	}
	return last, median(times), workingSet, nil
}

// liveHeap collects garbage and returns the bytes still reachable. The
// difference of two readings around a set-up is the workload's computed
// working set.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func growth(base, now uint64) uint64 {
	if now > base {
		return now - base
	}
	return 0
}

// registry is one scrape of a service's Prometheus registry.
type registry map[string]float64

func scrape(svc *service.Service) registry {
	var buf bytes.Buffer
	_ = svc.Registry().WriteText(&buf) // a bytes.Buffer write cannot fail
	reg := registry{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			reg[series] = v
		}
	}
	return reg
}

// histQuantile returns the q-quantile of the observations histogram name
// received between scrapes a and b, as the upper bound of the bucket that
// holds it.
func histQuantile(a, b registry, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for series, v := range b {
		le, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{bound, v - cumulativeAt(a, prefix, bound)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := b[name+"_count"] - a[name+"_count"]
	if total <= 0 {
		return 0
	}
	for _, bk := range bs {
		if bk.n >= q*total {
			return bk.le
		}
	}
	return bs[len(bs)-1].le
}

// cumulativeAt is the cumulative count of scrape reg at bucket bound le
// (the largest listed bound not above it; empty buckets are not listed).
func cumulativeAt(reg registry, prefix string, le float64) float64 {
	best, bestLE := 0.0, math.Inf(-1)
	for series, v := range reg {
		s, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(s, `"}`), 64)
		if err == nil && bound <= le && bound > bestLE {
			best, bestLE = v, bound
		}
	}
	return best
}

// reportRegistry adds the service-side kernel metrics accumulated between
// scrapes a and b.
func reportRegistry(m map[string]float64, a, b registry) {
	for _, ph := range telemetry.PhaseNames() {
		key := `breathe_sim_phase_seconds_total{phase="` + ph + `"}`
		m["sim.phase."+ph+"_s"] = b[key] - a[key]
	}
	m["service.queue_wait_p50_ms"] = 1e3 * histQuantile(a, b, "breathe_queue_wait_seconds", 0.5)
	m["service.queue_wait_p99_ms"] = 1e3 * histQuantile(a, b, "breathe_queue_wait_seconds", 0.99)
}

// reportStats adds the service counter deltas between a and b.
func reportStats(m map[string]float64, a, b service.Stats) {
	m["service.executed"] = float64(b.Executed - a.Executed)
	m["service.cache_hits"] = float64(b.CacheHits - a.CacheHits)
	m["service.shared_flights"] = float64(b.SharedFlights - a.SharedFlights)
	m["service.engines_built"] = float64(b.EnginesBuilt - a.EnginesBuilt)
	m["service.engines_reused"] = float64(b.EnginesReused - a.EnginesReused)
	m["service.rejected"] = float64(b.RejectedQueueFull + b.RejectedInvalid + b.RejectedTooLarge -
		a.RejectedQueueFull - a.RejectedInvalid - a.RejectedTooLarge)
	if sub := b.Submitted - a.Submitted; sub > 0 {
		m["service.dedup_ratio"] = float64(b.CacheHits+b.SharedFlights-a.CacheHits-a.SharedFlights) / float64(sub)
	}
	if eng := b.EnginesBuilt + b.EnginesReused - a.EnginesBuilt - a.EnginesReused; eng > 0 {
		m["service.engine_reuse_ratio"] = float64(b.EnginesReused-a.EnginesReused) / float64(eng)
	}
}

func us(xs []float64) float64 { return 1e6 * median(xs) }
