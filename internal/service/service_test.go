package service

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"breathe/internal/api"
)

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

// TestCacheHitSkipsKernel: the second identical submission must be served
// from the cache — terminal at birth, no kernel execution, byte-identical
// response.
func TestCacheHitSkipsKernel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := api.RunRequest{N: 512, Seed: 3}

	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if j1.State() != StateDone || j1.Cached {
		t.Fatalf("first job: state %s cached %v", j1.State(), j1.Cached)
	}
	_, raw1, ok := j1.Response()
	if !ok {
		t.Fatal("first job has no response")
	}
	executed := s.Stats().Executed

	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.State() != StateDone {
		t.Fatalf("second job not served from cache: state %s cached %v", j2.State(), j2.Cached)
	}
	_, raw2, ok := j2.Response()
	if !ok {
		t.Fatal("cached job has no response")
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("cached response differs from fresh one:\n%s\n%s", raw1, raw2)
	}
	st := s.Stats()
	if st.Executed != executed {
		t.Errorf("cache hit executed a kernel: %d -> %d", executed, st.Executed)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", st.CacheHits)
	}
}

// TestCachedBytesMatchColdRecompute: a fresh service (cold cache) must
// recompute byte-identical responses — the determinism the cache's
// correctness rests on.
func TestCachedBytesMatchColdRecompute(t *testing.T) {
	req := api.RunRequest{Protocol: "consensus", N: 1024, Seed: 9, CrashProb: 0.05}
	run := func() []byte {
		s := New(Config{Workers: 2})
		defer s.Close()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		_, raw, ok := j.Response()
		if !ok {
			t.Fatalf("job ended %s: %v", j.State(), j.Err())
		}
		return raw
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("independent services computed different bytes:\n%s\n%s", a, b)
	}
}

// TestEngineReuse: one worker serves jobs of every shape — population,
// channel, drop, self-messages, shards, crash plan, trajectory and trace
// hooks — on the one engine it built, re-armed per job, and every
// response is byte-identical to a fresh service's for that request alone.
func TestEngineReuse(t *testing.T) {
	reqs := []api.RunRequest{
		{N: 256, Seed: 1},
		{N: 4096, Seed: 2, Eps: 0.2},
		{N: 512, Seed: 3, DropProb: 0.1},
		{N: 4096, Seed: 4, NoSelfMessages: true, TrajectoryEvery: 16},
		{N: 256, Seed: 5, Shards: 2, CrashProb: 0.05},
		{N: 512, Seed: 6, Protocol: "consensus", TraceEvery: 8},
		{N: 4096, Seed: 7, Shards: 1, TrajectoryEvery: 4, TraceEvery: 4},
		{N: 512, Seed: 8, Eps: 0.3, NoSelfMessages: true, CrashProb: 0.1},
	}
	run := func(s *Service, req api.RunRequest) []byte {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		_, raw, ok := j.Response()
		if !ok {
			t.Fatalf("%+v: job ended %s: %v", req, j.State(), j.Err())
		}
		return raw
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, req := range reqs {
		got := run(s, req)
		alone := New(Config{Workers: 1})
		want := run(alone, req)
		alone.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: reused engine's bytes differ from a fresh service's:\n%s\n%s", req, got, want)
		}
	}
	st := s.Stats()
	if st.EnginesBuilt != 1 {
		t.Errorf("engines built = %d, want 1", st.EnginesBuilt)
	}
	if want := uint64(len(reqs) - 1); st.EnginesReused != want {
		t.Errorf("engines reused = %d, want %d", st.EnginesReused, want)
	}
}

// TestTrajectoryStream: a job with TrajectoryEvery records points that
// arrive in round order and end with the terminal state.
func TestTrajectoryStream(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.Submit(api.RunRequest{N: 1024, Seed: 4, TrajectoryEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	idx := 0
	for {
		pts, terminal, wait := j.Next(idx)
		for i, p := range pts {
			if p.Round != (idx+i)*2 {
				t.Fatalf("point %d at round %d, want %d", idx+i, p.Round, (idx+i)*2)
			}
		}
		idx += len(pts)
		got += len(pts)
		if terminal {
			break
		}
		select {
		case <-wait:
		case <-time.After(60 * time.Second):
			t.Fatal("stream stalled")
		}
	}
	if j.State() != StateDone {
		t.Fatalf("state %s err %v", j.State(), j.Err())
	}
	resp, _, _ := j.Response()
	if want := (resp.Rounds + 1) / 2; got != want {
		t.Errorf("streamed %d points, want %d for %d rounds", got, want, resp.Rounds)
	}
}

// TestCancelMidRun: cancel a streaming run after its first trajectory
// point; it must stop promptly at a round barrier, never be cached, and a
// resubmission must produce a complete, uncontaminated result.
func TestCancelMidRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// Self-exclusion keeps every round of a larger population in the
	// scatter regime: slow enough rounds that the cancel lands mid-run
	// even on a fast machine. MaxRounds bounds
	// the *resubmitted* complete run (a truncated result is still a
	// deterministic, cacheable one) so the test stays cheap under -race.
	req := api.RunRequest{N: 1 << 16, Seed: 1, NoSelfMessages: true, TrajectoryEvery: 1, MaxRounds: 192}

	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for proof the run started, then cancel.
	for {
		pts, terminal, wait := j.Next(0)
		if len(pts) > 0 {
			break
		}
		if terminal {
			t.Fatalf("run finished before first point: %s", j.State())
		}
		<-wait
	}
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	waitJob(t, j)
	if j.State() != StateCanceled {
		t.Fatalf("state %s, want canceled", j.State())
	}
	if !errors.Is(j.Err(), ErrCanceled) {
		t.Errorf("err = %v", j.Err())
	}
	if s.Stats().CacheEntries != 0 {
		t.Error("canceled run was cached")
	}

	// Resubmit: must execute fresh (no cache entry) and complete.
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Cached {
		t.Error("resubmission after cancel served from cache")
	}
	waitJob(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("resubmission ended %s: %v", j2.State(), j2.Err())
	}
	resp, _, _ := j2.Response()
	if resp.Canceled || resp.Rounds != 192 {
		t.Errorf("resubmitted run contaminated: canceled=%v rounds=%d, want the full 192", resp.Canceled, resp.Rounds)
	}
}

// TestCancelQueued: a job canceled while still queued never runs.
func TestCancelQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Close()
	// Occupy the single worker.
	blocker, err := s.Submit(api.RunRequest{N: 1 << 16, Seed: 7, NoSelfMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(api.RunRequest{N: 256, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("Cancel returned false for a queued job")
	}
	if st := queued.State(); st != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st)
	}
	s.Cancel(blocker.ID)
	waitJob(t, blocker)
	waitJob(t, queued)
	if s.Stats().Completed != 0 {
		t.Error("a canceled job completed")
	}
}

// TestQueueFullRejects: admission control must reject, not buffer, beyond
// the queue bound.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()
	// Block the worker, fill the one queue slot, then overflow. Distinct
	// seeds defeat single-flight; distinct configs defeat the cache.
	blocker, err := s.Submit(api.RunRequest{N: 1 << 16, Seed: 100, NoSelfMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	var rejected error
	for seed := uint64(0); seed < 16; seed++ {
		_, err := s.Submit(api.RunRequest{N: 256, Seed: seed})
		if err != nil {
			rejected = err
			break
		}
	}
	if !errors.Is(rejected, ErrQueueFull) {
		t.Errorf("no ErrQueueFull after overfilling the queue (got %v)", rejected)
	}
	if s.Stats().RejectedQueueFull == 0 {
		t.Error("rejection not counted")
	}
	s.Cancel(blocker.ID)
}

// TestSingleFlight: identical concurrent submissions share one execution.
func TestSingleFlight(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	blocker, err := s.Submit(api.RunRequest{N: 1 << 16, Seed: 50, NoSelfMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	req := api.RunRequest{N: 2048, Seed: 51}
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Cancel(blocker.ID)
	for _, j := range jobs {
		waitJob(t, j)
		if j.State() != StateDone {
			t.Fatalf("job %s ended %s", j.ID, j.State())
		}
	}
	st := s.Stats()
	if st.SharedFlights != 7 {
		t.Errorf("shared flights = %d, want 7", st.SharedFlights)
	}
	// One execution for the shared eight, one for the blocker at most.
	if st.Executed > 2 {
		t.Errorf("executed %d kernels for one shared request", st.Executed)
	}
	_, rawA, _ := jobs[0].Response()
	_, rawB, _ := jobs[7].Response()
	if !bytes.Equal(rawA, rawB) {
		t.Error("followers saw different bytes than the leader")
	}
}

// TestFollowerCancelDetaches: canceling one rider of a shared execution
// must not kill the run for the others.
func TestFollowerCancelDetaches(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	blocker, err := s.Submit(api.RunRequest{N: 1 << 16, Seed: 60, NoSelfMessages: true, MaxRounds: 128})
	if err != nil {
		t.Fatal(err)
	}
	req := api.RunRequest{N: 2048, Seed: 61}
	leader, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(follower.ID) {
		t.Fatal("follower cancel returned false")
	}
	if follower.State() != StateCanceled {
		t.Fatalf("follower state %s after cancel", follower.State())
	}
	if _, _, ok := follower.Response(); ok {
		t.Error("canceled follower still returns a response")
	}
	waitJob(t, blocker)
	waitJob(t, leader)
	if leader.State() != StateDone {
		t.Fatalf("leader ended %s after a follower canceled: %v", leader.State(), leader.Err())
	}
	// The reverse composition: when every rider cancels, the run stops.
	if s.Stats().Canceled > 1 {
		t.Errorf("shared execution counted canceled: %+v", s.Stats())
	}
}

// TestPlainRiderStreamsNothing: a no-trajectory submission that rides a
// recording execution (single-flight) must not stream the leader's
// points — same contract as the cache path.
func TestPlainRiderStreamsNothing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	blocker, err := s.Submit(api.RunRequest{N: 1 << 16, Seed: 70, NoSelfMessages: true, MaxRounds: 64})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := s.Submit(api.RunRequest{N: 2048, Seed: 71, TrajectoryEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	rider, err := s.Submit(api.RunRequest{N: 2048, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().SharedFlights != 1 {
		t.Fatalf("rider did not attach: %+v", s.Stats())
	}
	waitJob(t, blocker)
	waitJob(t, leader)
	waitJob(t, rider)
	if pts, _, _ := leader.Next(0); len(pts) == 0 {
		t.Error("leader recorded no points")
	}
	if pts, _, _ := rider.Next(0); len(pts) != 0 {
		t.Errorf("plain rider streamed %d of the leader's points", len(pts))
	}
	_, rawL, _ := leader.Response()
	_, rawR, _ := rider.Response()
	if !bytes.Equal(rawL, rawR) {
		t.Error("rider response differs from leader response")
	}
}

// TestTrajectoryGranularityNotConflated: cached points sampled every k
// rounds must not be served for an every-k' request.
func TestTrajectoryGranularityNotConflated(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	coarse, err := s.Submit(api.RunRequest{N: 1024, Seed: 6, TrajectoryEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, coarse)
	fine, err := s.Submit(api.RunRequest{N: 1024, Seed: 6, TrajectoryEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Cached {
		t.Fatal("every-1 request served from an every-64 cache entry")
	}
	waitJob(t, fine)
	cPts, _, _ := coarse.Next(0)
	fPts, _, _ := fine.Next(0)
	if len(fPts) <= len(cPts) {
		t.Errorf("fine trajectory has %d points, coarse %d", len(fPts), len(cPts))
	}
	// The result bytes are granularity-independent and still identical.
	_, rawC, _ := coarse.Response()
	_, rawF, _ := fine.Response()
	if !bytes.Equal(rawC, rawF) {
		t.Error("trajectory granularity changed the response bytes")
	}
	// The entry keeps its original every-64 points: a later run at a
	// different granularity must not overwrite them (regression: put used
	// to downgrade the entry to the newest granularity, discarding data
	// future every-64 requests would have hit). So every-64 still hits…
	again64, err := s.Submit(api.RunRequest{N: 1024, Seed: 6, TrajectoryEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !again64.Cached {
		t.Error("original-granularity resubmission missed the cache")
	}
	// …while every-1 recomputes (an exact-match policy cannot serve it).
	again1, err := s.Submit(api.RunRequest{N: 1024, Seed: 6, TrajectoryEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again1.Cached {
		t.Error("every-1 request served from the every-64 entry")
	}
	waitJob(t, again1)
	// A no-trajectory request hitting the same entry must stream nothing
	// — exactly what a fresh execution of it would.
	plain, err := s.Submit(api.RunRequest{N: 1024, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Cached {
		t.Fatal("plain resubmission missed the cache")
	}
	if pts, _, _ := plain.Next(0); len(pts) != 0 {
		t.Errorf("no-trajectory cache hit inherited %d stored points", len(pts))
	}
}

// TestValidationAndLimits: invalid and oversized requests are rejected at
// admission with the right counters, and none of them executes — NaN and
// infinite probabilities included, which fail every ordered comparison.
func TestValidationAndLimits(t *testing.T) {
	s := New(Config{Workers: 1, MaxN: 1000})
	defer s.Close()
	invalid := []api.RunRequest{
		{N: 1},
		{N: 256, Eps: math.NaN()},
		{N: 256, CrashProb: math.NaN()},
		{N: 256, DropProb: math.Inf(1)},
		{N: 256, Protocol: api.ProtoConsensus, ABias: math.NaN()},
		// 1/2 − ε rounds to 1/2, and a schedule that overflows int.
		{N: 64, Eps: 1e-300},
		{N: 64, Eps: 1e-12},
	}
	for _, req := range invalid {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("invalid request %+v admitted", req)
		}
	}
	if _, err := s.Submit(api.RunRequest{N: 4096}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized request: %v", err)
	}
	st := s.Stats()
	if st.RejectedInvalid != uint64(len(invalid)) || st.RejectedTooLarge != 1 || st.Submitted != 0 || st.Executed != 0 {
		t.Errorf("rejection counters: %+v", st)
	}
}

// TestConcurrentSubmits hammers the service from many goroutines with a
// mix of fresh and repeated requests (race-detector coverage for the
// queue, cache, registry and engine pool).
func TestConcurrentSubmits(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 512})
	defer s.Close()
	var wg sync.WaitGroup
	const clients = 16
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Seeds overlap across clients: a mix of misses, hits
				// and single-flight shares.
				req := api.RunRequest{N: 512, Seed: uint64(i % 4)}
				j, err := s.Submit(req)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				waitJob(t, j)
				if j.State() != StateDone {
					t.Errorf("client %d: job ended %s", c, j.State())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed == 0 {
		t.Error("nothing completed")
	}
	// 4 distinct configs: at most 4 executions can be genuine; everything
	// else must have been deduplicated by the cache or single-flight.
	if st.Executed > 4 {
		t.Errorf("executed %d kernels for 4 distinct configs", st.Executed)
	}
}

// TestSubmitAfterClose: a closed service rejects cleanly.
func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(api.RunRequest{N: 256}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
}

// TestResubmitAfterDoneIsCacheHit pins the order of an execution's
// completion: its cache entry is stored before Done closes, so a client
// that resubmits the moment its wait returns is served from the cache
// instead of running the kernel again. Holding the cache lock while the
// kernel runs makes the order observable: Done must not close until the
// entry can be stored.
func TestResubmitAfterDoneIsCacheHit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for seed := uint64(1); seed <= 2; seed++ {
		req := api.RunRequest{N: 256, Seed: seed}
		j1, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		s.cache.mu.Lock()
		select {
		case <-j1.Done():
			s.cache.mu.Unlock()
			t.Fatalf("seed %d: Done closed before the cache entry was stored", seed)
		case <-time.After(500 * time.Millisecond):
		}
		s.cache.mu.Unlock()
		<-j1.Done()
		j2, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !j2.Cached {
			t.Fatalf("seed %d: resubmission after Done was not a cache hit (state %s)", seed, j2.State())
		}
	}
}

// TestJobHistoryEvictsPastInFlight: a job still running at the front of
// the history must not keep the finished jobs registered after it. With a
// bound of 2, one long run in flight and 50 cache hits, the registry keeps
// the in-flight run and the newest hit, and evicts every older finished
// job.
func TestJobHistoryEvictsPastInFlight(t *testing.T) {
	s := New(Config{Workers: 1, JobHistory: 2})
	defer s.Close()
	small := api.RunRequest{N: 256, Seed: 1}
	j0, err := s.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j0)

	long, err := s.Submit(api.RunRequest{Protocol: api.ProtoAsyncSelfSync, N: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Cancel(long.ID)
		waitJob(t, long)
	}()
	var last *Job
	for range 50 {
		if last, err = s.Submit(small); err != nil {
			t.Fatal(err)
		}
		if !last.Cached {
			t.Fatal("repeat submission was not a cache hit")
		}
	}
	if long.State().Terminal() {
		t.Fatalf("the long run ended (%s) before the check; the scenario needs it in flight", long.State())
	}

	s.mu.Lock()
	retained, order := len(s.jobs), len(s.jobOrder)
	s.mu.Unlock()
	if retained != 2 || order != 2 {
		t.Errorf("registry keeps %d jobs (%d ordered), want 2: the in-flight run and the newest hit", retained, order)
	}
	for _, j := range []*Job{long, last} {
		if _, ok := s.Get(j.ID); !ok {
			t.Errorf("job %s evicted", j.ID)
		}
	}
	if _, ok := s.Get(j0.ID); ok {
		t.Errorf("oldest finished job %s still retained", j0.ID)
	}
}

// TestRecoveredTurnsPanicIntoError: a panic in a guarded stage becomes
// the job's error, naming the stage, instead of unwinding the worker.
func TestRecoveredTurnsPanicIntoError(t *testing.T) {
	v, err := recovered("build", func() (int, error) { panic("boom") })
	if v != 0 || err == nil || err.Error() != "service: build panicked: boom" {
		t.Fatalf("recovered = %v, %v", v, err)
	}
	if v, err := recovered("kernel", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("recovered without panic = %v, %v", v, err)
	}
}
