package service

// The service's metric surface: one telemetry.Registry per Service,
// exposed by the HTTP layer at GET /metrics in Prometheus text format.
// Scrape-time funcs snapshot state the service already tracks (queue,
// cache, counters) so there is no double bookkeeping; the only push-side
// instruments are the per-run histograms and the kernel phase/regime
// totals folded from each worker's run probe after every execution.

import (
	"sync/atomic"
	"time"

	"breathe/internal/telemetry"
)

// serviceMetrics owns the registry and the push-side instruments.
type serviceMetrics struct {
	reg *telemetry.Registry

	// Kernel decomposition, folded from worker probes after each run.
	phaseNs      [telemetry.NumPhases]*telemetry.Counter
	regimeRounds [telemetry.NumRegimes]*telemetry.Counter

	// Per-run latency: kernel wall time, time spent queued, and the
	// client-visible total (queue + kernel). Observed in nanoseconds,
	// exported in seconds.
	runWall   *telemetry.Histogram
	queueWait *telemetry.Histogram
	request   *telemetry.Histogram
}

func counterVal(c *atomic.Uint64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

func newServiceMetrics(s *Service) *serviceMetrics {
	reg := telemetry.NewRegistry()
	m := &serviceMetrics{reg: reg}

	// Pool and queue gauges, computed at scrape time.
	reg.GaugeFunc("breathe_workers", "Size of the engine worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("breathe_queue_depth", "Executions waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("breathe_queue_capacity", "Capacity of the admission queue.",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("breathe_engines_busy", "Workers currently executing a kernel.",
		func() float64 { return float64(s.enginesBusy.Load()) })
	reg.GaugeFunc("breathe_active_runs", "In-flight executions in the single-flight set.",
		func() float64 {
			s.mu.Lock()
			n := len(s.active)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("breathe_cache_entries", "Entries in the content-addressed result cache.",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("breathe_cache_capacity", "Capacity of the result cache.",
		func() float64 { return float64(s.cfg.CacheEntries) })

	// Lifecycle counters, read at scrape time from the service's atomics.
	for _, c := range []struct {
		name, help string
		src        *atomic.Uint64
	}{
		{"breathe_submitted_total", "Jobs admitted (including cache hits and shared flights).", &s.submitted},
		{"breathe_completed_total", "Executions that finished with a response.", &s.completed},
		{"breathe_canceled_total", "Executions canceled before completion.", &s.canceled},
		{"breathe_failed_total", "Executions that failed to build or run.", &s.failed},
		{"breathe_cache_hits_total", "Submissions served from the result cache.", &s.cacheHits},
		{"breathe_cache_misses_total", "Submissions that enqueued a fresh execution.", &s.cacheMisses},
		{"breathe_shared_flights_total", "Submissions attached to an identical in-flight execution.", &s.sharedFlights},
		{"breathe_executed_total", "Kernel runs actually executed.", &s.executed},
		{"breathe_engines_built_total", "Engines constructed: one per worker, plus one after each kernel panic.", &s.enginesBuilt},
		{"breathe_engines_reused_total", "Runs served by a worker's engine re-armed with Reset.", &s.enginesReused},
	} {
		reg.CounterFunc(c.name, c.help, counterVal(c.src))
	}
	for _, c := range []struct {
		reason string
		src    *atomic.Uint64
	}{
		{"queue_full", &s.rejectedQueueFull},
		{"invalid", &s.rejectedInvalid},
		{"too_large", &s.rejectedTooLarge},
	} {
		reg.CounterFunc("breathe_rejected_total", "Submissions rejected, by reason.",
			counterVal(c.src), telemetry.Label{Name: "reason", Value: c.reason})
	}

	// Kernel phase decomposition. Stored in integer nanoseconds (one
	// atomic add per fold), exported in seconds.
	for i, name := range telemetry.PhaseNames() {
		m.phaseNs[i] = reg.ScaledCounter("breathe_sim_phase_seconds_total",
			"Kernel wall time by round phase, across all executed runs.", 1e-9,
			telemetry.Label{Name: "phase", Value: name})
	}
	for i, name := range telemetry.RegimeNames() {
		m.regimeRounds[i] = reg.Counter("breathe_sim_rounds_total",
			"Executed simulation rounds by kernel regime.",
			telemetry.Label{Name: "regime", Value: name})
	}

	m.runWall = reg.Histogram("breathe_run_wall_seconds",
		"Kernel wall time per executed run.", 1e-9)
	m.queueWait = reg.Histogram("breathe_queue_wait_seconds",
		"Time from admission to execution start.", 1e-9)
	m.request = reg.Histogram("breathe_request_seconds",
		"Client-visible latency of executed runs (queue wait + kernel).", 1e-9)
	return m
}

// observeRun folds one finished (or failed) run into the registry: the
// probe's per-phase and per-regime totals, plus the latency histograms.
// Safe to call from any worker — every instrument is atomic.
func (m *serviceMetrics) observeRun(p *telemetry.RunProbe, queueWait, wall time.Duration) {
	ns := p.PhaseNanos()
	for i, d := range ns {
		if d > 0 {
			m.phaseNs[i].Add(uint64(d))
		}
	}
	rr := p.RegimeRounds()
	for i, n := range rr {
		if n > 0 {
			m.regimeRounds[i].Add(uint64(n))
		}
	}

	if queueWait < 0 {
		queueWait = 0
	}
	m.queueWait.Observe(uint64(queueWait))
	m.runWall.Observe(uint64(wall))
	m.request.Observe(uint64(queueWait + wall))
}

// Registry exposes the service's metric registry (for /metrics and for
// embedding daemons that add their own families).
func (s *Service) Registry() *telemetry.Registry { return s.metrics.reg }
