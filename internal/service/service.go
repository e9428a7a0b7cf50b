// Package service is the concurrent simulation service behind cmd/breathed:
// a bounded admission queue feeding a pool of workers with one reused
// engine each, a content-addressed result cache in front of them, and
// per-job trajectory streaming and cancellation.
//
// The design exploits what the simulator guarantees. Every run is a pure
// function of its canonical request (internal/api), so results are
// cacheable forever under the config hash and identical in-flight requests
// can share one execution (single-flight). Engine.Reset arms an engine
// with a job's whole configuration and keeps its buffers while n stays
// the same, so a worker serves a stream of jobs on one engine, with the
// memory of one. And the engine polls a cancel channel
// at every round barrier without touching an RNG stream, so cancellation
// is prompt and a canceled run's executed prefix stays bit-identical to an
// uncanceled run — resubmitting after a cancel reproduces the original
// result exactly.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"breathe/internal/api"
	"breathe/internal/channel"
	"breathe/internal/sim"
	"breathe/internal/telemetry"
)

// Errors returned by Submit and reported by failed jobs.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity (back-pressure; clients should retry with backoff).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrClosed rejects submissions to a closed service.
	ErrClosed = errors.New("service: closed")
	// ErrCanceled is the Err of canceled jobs.
	ErrCanceled = errors.New("service: run canceled")
	// ErrTooLarge rejects populations beyond the service's MaxN.
	ErrTooLarge = errors.New("service: population exceeds the service limit")
)

// Config sizes the service.
type Config struct {
	// Workers is the number of workers, one engine each (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (0 = 256). A full queue
	// rejects new work with ErrQueueFull instead of buffering unboundedly.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (0 = 1024).
	CacheEntries int
	// MaxN caps the admitted population size (0 = no cap beyond the
	// engine's own limits).
	MaxN int
	// JobHistory bounds how many terminal jobs stay retrievable by ID
	// (0 = 16384).
	JobHistory int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 16384
	}
	return c
}

// Stats is a point-in-time snapshot of the service's counters. The
// Executed / CacheHits pair is the cache's proof of work avoided: a warm
// hit increments CacheHits while Executed stays flat. QueueDepth and
// EnginesBusy are the load gauges: queued work waiting for a worker, and
// workers currently inside a kernel.
type Stats struct {
	Workers      int `json:"workers"`
	QueueDepth   int `json:"queue_depth"`
	QueueCap     int `json:"queue_cap"`
	Active       int `json:"active"`
	EnginesBusy  int `json:"engines_busy"`
	CacheEntries int `json:"cache_entries"`
	CacheCap     int `json:"cache_cap"`

	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	// Canceled counts executions that finalized canceled, booked at
	// finalize — for a running execution, after the engine reaches its
	// next round barrier — not rider cancels: a job reads canceled as
	// soon as Cancel returns, and this counter moves later.
	Canceled          uint64 `json:"canceled"`
	Failed            uint64 `json:"failed"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	SharedFlights     uint64 `json:"shared_flights"`
	Executed          uint64 `json:"executed"`
	EnginesBuilt      uint64 `json:"engines_built"`
	EnginesReused     uint64 `json:"engines_reused"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedInvalid   uint64 `json:"rejected_invalid"`
	RejectedTooLarge  uint64 `json:"rejected_too_large"`
}

// Service is the worker pool plus its admission queue, result cache and
// job registry. Create with New, stop with Close.
type Service struct {
	cfg     Config
	queue   chan *execution
	cache   *resultCache
	metrics *serviceMetrics
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	active   map[string]*execution // hash → in-flight execution
	jobs     map[string]*Job
	jobOrder []string // insertion order, for history eviction
	seq      uint64

	enginesBusy atomic.Int64 // workers currently inside eng.Run

	submitted         atomic.Uint64
	completed         atomic.Uint64
	canceled          atomic.Uint64
	failed            atomic.Uint64
	cacheHits         atomic.Uint64
	cacheMisses       atomic.Uint64
	sharedFlights     atomic.Uint64
	executed          atomic.Uint64
	enginesBuilt      atomic.Uint64
	enginesReused     atomic.Uint64
	rejectedQueueFull atomic.Uint64
	rejectedInvalid   atomic.Uint64
	rejectedTooLarge  atomic.Uint64
}

// New starts a service with cfg.Workers pool workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		queue:  make(chan *execution, cfg.QueueDepth),
		cache:  newResultCache(cfg.CacheEntries),
		active: make(map[string]*execution),
		jobs:   make(map[string]*Job),
	}
	s.metrics = newServiceMetrics(s)
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s
}

// Close stops admissions, drains the queued executions and waits for the
// workers to finish. Queued jobs still run; cancel them first for a fast
// shutdown.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Submit validates and admits a run request. The fast paths never touch a
// kernel: a request whose hash is cached returns a terminal job carrying
// the stored response, and a request identical to an in-flight one
// attaches to that execution (single-flight). Otherwise the job enters
// the bounded queue, or is rejected with ErrQueueFull.
func (s *Service) Submit(req api.RunRequest) (*Job, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.rejectedInvalid.Add(1)
		return nil, err
	}
	if s.cfg.MaxN > 0 && req.N > s.cfg.MaxN {
		s.rejectedTooLarge.Add(1)
		return nil, fmt.Errorf("%w: n = %d > %d", ErrTooLarge, req.N, s.cfg.MaxN)
	}
	hash := req.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.seq++
	id := fmt.Sprintf("%s-%d", hash[:12], s.seq)

	// Single-flight: ride an identical in-flight execution. A follower
	// that wants a trajectory only attaches if the leader is recording
	// one at exactly the requested granularity — points sampled every k
	// rounds cannot stand in for every-k' ones. The same rule governs
	// run traces. The liveness check and the riders++ are one critical
	// section: attaching to an execution whose last rider just canceled
	// would hand the new client a "canceled" outcome it never asked for.
	if ex, ok := s.active[hash]; ok &&
		(req.TrajectoryEvery == 0 || ex.req.TrajectoryEvery == req.TrajectoryEvery) &&
		(req.TraceEvery == 0 || ex.req.TraceEvery == req.TraceEvery) {
		ex.mu.Lock()
		alive := !ex.state.Terminal() && ex.riders > 0 && !ex.canceled()
		if alive {
			ex.riders++
		}
		ex.mu.Unlock()
		if alive {
			job := &Job{ID: id, ex: ex, wantsTrajectory: req.TrajectoryEvery > 0, wantsTrace: req.TraceEvery > 0}
			s.registerLocked(job)
			s.sharedFlights.Add(1)
			s.submitted.Add(1)
			return job, nil
		}
		// The in-flight execution is dying; fall through to the cache or
		// a fresh enqueue (which replaces it in the active set).
	}

	// Content-addressed cache: serve stored bytes, no kernel. A request
	// that wants a trajectory needs an entry recorded at the same
	// granularity; otherwise it falls through and recomputes (replacing
	// the entry's points). A trace request always recomputes: traces are
	// per execution, never cached — a hit has no kernel run to trace.
	if ent, ok := s.cache.get(hash); ok && req.TraceEvery == 0 &&
		(req.TrajectoryEvery == 0 || (ent.points != nil && ent.every == req.TrajectoryEvery)) {
		job := s.serveFromCache(id, hash, req, ent)
		s.registerLocked(job)
		s.cacheHits.Add(1)
		s.submitted.Add(1)
		return job, nil
	}

	//breathe:walltime-ok queue timestamp for wait-time metrics, not simulation state
	ex := newExecution(hash, req, time.Now())
	ex.riders = 1
	job := &Job{ID: id, ex: ex, wantsTrajectory: req.TrajectoryEvery > 0, wantsTrace: req.TraceEvery > 0}
	select {
	case s.queue <- ex:
	default:
		s.rejectedQueueFull.Add(1)
		return nil, ErrQueueFull
	}
	s.active[hash] = ex
	s.registerLocked(job)
	s.cacheMisses.Add(1)
	s.submitted.Add(1)
	return job, nil
}

// serveFromCache materializes an already-Done execution from a stored
// cache entry: the served bytes are the stored bytes, no kernel wakes,
// and — proven by the annotation — no RNG draw happens, so a hit cannot
// perturb any concurrent execution's streams.
//
//breathe:drawfree
func (s *Service) serveFromCache(id, hash string, req api.RunRequest, ent *cacheEntry) *Job {
	//breathe:walltime-ok job bookkeeping timestamp, not simulation state
	ex := newExecution(hash, req, time.Now())
	if req.TrajectoryEvery > 0 {
		// Only a trajectory-requesting job inherits the stored points: a
		// plain request must stream exactly what a fresh execution of it
		// would (nothing).
		ex.points = ent.points
	}
	ex.resp = ent.resp
	ex.respBytes = ent.raw
	ex.state = StateDone
	return &Job{ID: id, Cached: true, ex: ex, wantsTrajectory: req.TrajectoryEvery > 0}
}

// registerLocked records a job in the registry and evicts the oldest
// terminal jobs beyond the history bound. In-flight jobs stay retrievable
// (the queue bounds them) and do not hold back the eviction of finished
// jobs registered after them. Callers hold s.mu.
func (s *Service) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.jobOrder = append(s.jobOrder, j.ID)
	// jobOrder[:i] are in-flight jobs, oldest first; each eviction moves
	// them back one place over the evicted job's.
	for i := 0; len(s.jobOrder) > s.cfg.JobHistory && i < len(s.jobOrder); {
		id := s.jobOrder[i]
		if !s.jobs[id].State().Terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		copy(s.jobOrder[1:], s.jobOrder[:i])
		s.jobOrder = s.jobOrder[1:]
	}
}

// Get returns the job with the given ID.
func (s *Service) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Cancellation is per rider: a
// job sharing a single-flight execution detaches (its own state becomes
// canceled, its streams end) while the physical run continues for the
// other riders. Only when the last rider cancels does the run itself
// stop — immediately if still queued, at the engine's next round barrier
// if running. Returns false when the job is unknown or already terminal.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	ex := j.ex
	ex.mu.Lock()
	if j.selfCanceled || ex.state.Terminal() {
		ex.mu.Unlock()
		return false
	}
	j.selfCanceled = true
	ex.riders--
	last := ex.riders <= 0
	if last && ex.state == StateQueued {
		ex.state = StateCanceled
		ex.err = ErrCanceled
	}
	ex.broadcast()
	ex.mu.Unlock()
	if last {
		ex.requestCancel()
	}
	return true
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	active := len(s.active)
	s.mu.Unlock()
	return Stats{
		Workers:      s.cfg.Workers,
		QueueDepth:   len(s.queue),
		QueueCap:     s.cfg.QueueDepth,
		Active:       active,
		EnginesBusy:  int(s.enginesBusy.Load()),
		CacheEntries: s.cache.len(),
		CacheCap:     s.cfg.CacheEntries,

		Submitted:         s.submitted.Load(),
		Completed:         s.completed.Load(),
		Canceled:          s.canceled.Load(),
		Failed:            s.failed.Load(),
		CacheHits:         s.cacheHits.Load(),
		CacheMisses:       s.cacheMisses.Load(),
		SharedFlights:     s.sharedFlights.Load(),
		Executed:          s.executed.Load(),
		EnginesBuilt:      s.enginesBuilt.Load(),
		EnginesReused:     s.enginesReused.Load(),
		RejectedQueueFull: s.rejectedQueueFull.Load(),
		RejectedInvalid:   s.rejectedInvalid.Load(),
		RejectedTooLarge:  s.rejectedTooLarge.Load(),
	}
}

// worker serves queued executions until Close on one engine, re-armed
// with each job's whole configuration, and one run probe, reset per job.
// The engine is nil until the first job and after a kernel panic.
func (s *Service) worker() {
	defer s.wg.Done()
	var eng *sim.Engine
	probe := telemetry.NewRunProbe()
	for ex := range s.queue {
		s.runExecution(ex, &eng, probe)
	}
}

// maxTraceBytes bounds the NDJSON trace stored per execution: long runs
// truncate (the writer emits a {"t":"truncated"} sentinel) instead of
// growing service memory without bound.
const maxTraceBytes = 1 << 20

// runExecution drives one physical run on the worker's engine. The
// worker's probe is always armed — phase and regime totals fold into the
// service metrics for every run — and additionally streams a bounded
// NDJSON trace when the leader requested one (trace_every > 0).
func (s *Service) runExecution(ex *execution, eng **sim.Engine, probe *telemetry.RunProbe) {
	defer s.finalize(ex)
	if ex.canceled() {
		ex.fail(StateCanceled, ErrCanceled, 0)
		return
	}
	ex.setState(StateRunning)

	// A panic while building or running (an engine precondition Validate
	// could not see, or a protocol bug) must fail the one job, not take
	// down the daemon.
	run, err := recovered("build", ex.req.Build)
	if err != nil {
		ex.fail(StateFailed, err, 0)
		return
	}

	// The job's whole configuration, hooks included, so nothing of the
	// previous job's survives on the engine.
	cfg := run.Config
	cfg.Cancel = ex.cancel
	probe.Reset()
	var traceBuf *bytes.Buffer
	if every := ex.req.TraceEvery; every > 0 {
		traceBuf = &bytes.Buffer{}
		probe.SetTrace(telemetry.NewTraceWriter(traceBuf, every, maxTraceBytes))
	}
	cfg.Telemetry = probe
	proto := run.NewProtocol()
	if every := ex.req.TrajectoryEvery; every > 0 {
		// The trajectory observer only acts on multiples of every;
		// declaring that lets the engine skip quiet spans between sample
		// rounds without changing the published points.
		cfg.Observer = trajectoryObserver(ex, proto, every)
		cfg.ObserverEvery = every
	}
	if *eng == nil {
		*eng, err = sim.NewEngine(cfg)
		if err == nil {
			s.enginesBuilt.Add(1)
		}
	} else if err = (*eng).Reset(cfg); err == nil {
		s.enginesReused.Add(1)
	}
	if err != nil {
		ex.fail(StateFailed, err, 0)
		return
	}

	// After a kernel panic the engine's state is suspect; it is dropped
	// below and the worker's next job builds a fresh one.
	//breathe:walltime-ok wall-time metrics around the run, outside the kernel
	start := time.Now()
	s.enginesBusy.Add(1)
	res, runErr := recovered("kernel", func() (sim.Result, error) { return (*eng).Run(proto), nil })
	s.enginesBusy.Add(-1)
	//breathe:walltime-ok wall-time metrics around the run, outside the kernel
	wall := time.Since(start)
	s.executed.Add(1)
	s.metrics.observeRun(probe, start.Sub(ex.queuedAt), wall)
	if runErr != nil {
		*eng = nil
		ex.fail(StateFailed, runErr, wall)
		return
	}

	if res.Canceled {
		ex.fail(StateCanceled, ErrCanceled, wall)
		return
	}
	resp := api.NewResponse(ex.req, res, run.Crashed, proto)
	raw, err := json.Marshal(resp)
	if err != nil {
		ex.fail(StateFailed, err, wall)
		return
	}
	var traceBytes []byte
	if traceBuf != nil {
		traceBytes = traceBuf.Bytes()
	}
	ex.mu.Lock()
	points := ex.points
	ex.mu.Unlock()
	// The entry goes in before Done closes, so a resubmission from a
	// woken waiter is a cache hit, never a second kernel run. The trace
	// never enters the cache: it describes this execution's wall-clock
	// behaviour, not the (deterministic) result.
	s.cache.put(&cacheEntry{hash: ex.hash, resp: &resp, raw: raw, points: points, every: ex.req.TrajectoryEvery})
	ex.finish(&resp, raw, traceBytes, wall)
}

// recovered calls f, turning a panic into an error naming the stage.
func recovered[T any](stage string, f func() (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("service: %s panicked: %v", stage, p)
		}
	}()
	return f()
}

// finalize retires an execution: removes it from the single-flight set
// and books its terminal state.
func (s *Service) finalize(ex *execution) {
	s.mu.Lock()
	if s.active[ex.hash] == ex {
		delete(s.active, ex.hash)
	}
	s.mu.Unlock()
	ex.mu.Lock()
	state := ex.state
	ex.mu.Unlock()
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateCanceled:
		s.canceled.Add(1)
	default:
		s.failed.Add(1)
	}
}

// trajectoryObserver samples the population every `every` rounds and
// publishes the point to the execution's subscribers. It only reads —
// protocol opinions and engine counters — and draws nothing from any RNG
// stream, so an observed run is bit-identical to an unobserved one.
func trajectoryObserver(ex *execution, proto sim.Protocol, every int) sim.Observer {
	return func(round int, e *sim.Engine) {
		if round%every != 0 {
			return
		}
		correct, decided := 0, 0
		for a := 0; a < e.N(); a++ {
			if b, ok := proto.Opinion(a); ok {
				decided++
				if b == channel.One {
					correct++
				}
			}
		}
		ex.publish(api.TrajectoryPoint{
			Round:   round,
			Correct: correct,
			Decided: decided,
			Sent:    e.MessagesSent(),
		})
	}
}
