package service

import (
	"sync"
	"time"

	"breathe/internal/api"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker's engine.
	StateRunning State = "running"
	// StateDone: completed; the response is available.
	StateDone State = "done"
	// StateCanceled: canceled before completion (while queued or at a
	// round barrier mid-run). No response; never cached.
	StateCanceled State = "canceled"
	// StateFailed: the run could not be built or executed.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// execution is the shared state of one physical run. Every job submitted
// for the same hash while the run is queued or in flight shares the one
// execution (single-flight), so a burst of identical requests costs one
// kernel pass; the rest ride along and stream the same trajectory.
type execution struct {
	hash string
	req  api.RunRequest // normalized; TrajectoryEvery from the leader

	// cancel aborts the run: the engine polls it at every round barrier.
	cancel     chan struct{}
	cancelOnce sync.Once

	mu        sync.Mutex
	change    chan struct{} // closed and replaced on every update
	state     State
	riders    int // jobs riding this execution; the last one to cancel stops it
	points    []api.TrajectoryPoint
	resp      *api.RunResponse
	respBytes []byte // canonical marshaled response — cached byte for byte
	trace     []byte // bounded NDJSON run trace, when the leader asked for one
	err       error
	queuedAt  time.Time
	wall      time.Duration // kernel wall time, once terminal
}

func newExecution(hash string, req api.RunRequest, now time.Time) *execution {
	return &execution{
		hash:     hash,
		req:      req,
		cancel:   make(chan struct{}),
		change:   make(chan struct{}),
		state:    StateQueued,
		queuedAt: now,
	}
}

// broadcast wakes every waiter. Callers hold ex.mu.
func (ex *execution) broadcast() {
	close(ex.change)
	ex.change = make(chan struct{})
}

func (ex *execution) setState(s State) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.state.Terminal() {
		return
	}
	ex.state = s
	ex.broadcast()
}

// requestCancel closes the cancel channel; the engine honours it at the
// next round barrier (or the worker skips the run if still queued).
func (ex *execution) requestCancel() {
	ex.cancelOnce.Do(func() { close(ex.cancel) })
}

func (ex *execution) canceled() bool {
	select {
	case <-ex.cancel:
		return true
	default:
		return false
	}
}

func (ex *execution) publish(pt api.TrajectoryPoint) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.points = append(ex.points, pt)
	ex.broadcast()
}

func (ex *execution) finish(resp *api.RunResponse, raw, trace []byte, wall time.Duration) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.resp = resp
	ex.respBytes = raw
	ex.trace = trace
	ex.wall = wall
	ex.state = StateDone
	ex.broadcast()
}

func (ex *execution) fail(state State, err error, wall time.Duration) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.state.Terminal() {
		return
	}
	ex.state = state
	ex.err = err
	ex.wall = wall
	ex.broadcast()
}

// Job is one submission's handle. Jobs served from the result cache are
// born terminal; jobs sharing an in-flight execution share its stream and
// outcome — except cancellation, which is per job: canceling a rider
// detaches it, and only the last rider's cancel stops the physical run.
type Job struct {
	// ID is the submission's unique identifier.
	ID string
	// Cached reports that the job was served from the result cache
	// without touching a kernel.
	Cached bool

	ex *execution
	// wantsTrajectory records whether THIS submission asked for points
	// (trajectory_every > 0). A plain job riding a recording execution —
	// single-flight or cache hit — must stream exactly what a fresh
	// execution of it would: nothing.
	wantsTrajectory bool
	// wantsTrace records whether THIS submission asked for a run trace
	// (trace_every > 0) — same per-rider rule as wantsTrajectory.
	wantsTrace bool
	// selfCanceled marks this job canceled even though the shared
	// execution may run on for other riders. Guarded by ex.mu.
	selfCanceled bool
}

// Hash returns the run's content address.
func (j *Job) Hash() string { return j.ex.hash }

// Request returns the normalized request.
func (j *Job) Request() api.RunRequest { return j.ex.req }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	if j.selfCanceled {
		return StateCanceled
	}
	return j.ex.state
}

// Err returns the failure cause for StateFailed / StateCanceled jobs.
func (j *Job) Err() error {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	if j.selfCanceled {
		return ErrCanceled
	}
	return j.ex.err
}

// Wall returns the kernel wall time of a terminal job (zero for cache
// hits: no kernel ran).
func (j *Job) Wall() time.Duration {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	return j.ex.wall
}

// Response returns the completed run's response and its canonical
// serialization. ok is false until the job reaches StateDone. The bytes
// are shared and must not be mutated; they are byte-identical between a
// fresh execution and every later cache hit of the same hash.
func (j *Job) Response() (resp *api.RunResponse, raw []byte, ok bool) {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	if j.selfCanceled || j.ex.state != StateDone {
		return nil, nil, false
	}
	return j.ex.resp, j.ex.respBytes, true
}

// Trace returns the NDJSON run trace of a completed job that requested
// one (trace_every > 0). Trace bytes are per execution, never cached:
// a cache hit has no trace because no kernel ran. The slice is shared
// and must not be mutated.
func (j *Job) Trace() ([]byte, bool) {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	if !j.wantsTrace || j.selfCanceled || j.ex.state != StateDone || len(j.ex.trace) == 0 {
		return nil, false
	}
	return j.ex.trace, true
}

// Done returns a channel closed once the job is terminal. The channel is
// a snapshot of the current update cycle: re-call after each wake.
func (j *Job) Done() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			j.ex.mu.Lock()
			terminal := j.ex.state.Terminal() || j.selfCanceled
			wait := j.ex.change
			j.ex.mu.Unlock()
			if terminal {
				return
			}
			<-wait
		}
	}()
	return done
}

// Next returns the trajectory points recorded at index >= from, whether
// the job is terminal, and a channel closed at the next update. Streaming
// loop: write points, advance from, and when terminal is false wait on
// the channel (racing it against client disconnect) before retrying.
func (j *Job) Next(from int) (pts []api.TrajectoryPoint, terminal bool, wait <-chan struct{}) {
	j.ex.mu.Lock()
	defer j.ex.mu.Unlock()
	if j.wantsTrajectory && from < len(j.ex.points) {
		pts = append(pts, j.ex.points[from:]...)
	}
	return pts, j.ex.state.Terminal() || j.selfCanceled, j.ex.change
}
