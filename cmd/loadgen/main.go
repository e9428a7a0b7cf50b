// Command loadgen drives a running breathed instance with concurrent
// clients and reports latency percentiles and cache effectiveness. It is
// both the service's benchmark harness and its end-to-end smoke test: the
// exercises it can fold in — one mid-run cancel (-cancels) and one
// byte-identity check of a cached response against the freshly computed
// one (-verify) — are the service's acceptance criteria, and the process
// exits non-zero when any of them fails.
//
// The request mix is deterministic: the run's total request count is
// mapped onto a universe of ceil(total·(1−hit)) distinct (config, seed)
// pairs, so a -hit 0.7 run resolves ~70% of requests from the result
// cache (or by riding an identical in-flight execution) once the universe
// is warm.
//
// Latency is tracked in a fixed-size log-bucketed histogram
// (internal/telemetry), not an unbounded sample slice, so the report's
// p50/p99/p999 cost the same memory at 10³ and 10⁸ requests. With -limit
// the submission side is paced to a sustained QPS target instead of
// firing as fast as the clients can loop; -ramp grows the rate linearly
// from zero before sustaining, which keeps a cold daemon's queue from
// rejecting the first burst.
//
// Usage:
//
//	loadgen -addr http://localhost:8344 -clients 64 -requests 8 -hit 0.5
//	loadgen -clients 64 -requests 32 -limit 200 -ramp 5s
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"breathe/internal/telemetry"
)

func main() {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8344", "breathed base URL")
		clients  = fs.Int("clients", 64, "concurrent clients")
		requests = fs.Int("requests", 8, "requests per client")
		hit      = fs.Float64("hit", 0.5, "target cache-hit ratio in [0, 1)")
		n        = fs.Int("n", 4096, "population size per run")
		protocol = fs.String("protocol", "broadcast", "protocol for the load mix")
		cancels  = fs.Int("cancels", 1, "mid-run cancel exercises")
		verify   = fs.Bool("verify", true, "verify a cached response is byte-identical to the fresh one")
		seed     = fs.Uint64("seed", 2_000_000, "base seed for the verify exercise (bump it when re-running against a long-lived daemon: the first submission must be a genuine miss)")
		limit    = fs.Float64("limit", 0, "sustained submission rate in requests/s across all clients (0 = unpaced)")
		ramp     = fs.Duration("ramp", 0, "with -limit: grow the rate linearly from zero over this window before sustaining")
	)
	fs.Parse(os.Args[1:])

	g := &loadgen{
		base:     strings.TrimRight(*addr, "/"),
		clients:  *clients,
		requests: *requests,
		hitRatio: *hit,
		n:        *n,
		protocol: *protocol,
		cancels:  *cancels,
		verify:   *verify,
		seed:     *seed,
		limit:    *limit,
		ramp:     *ramp,
		client:   &http.Client{Timeout: 5 * time.Minute},
		out:      os.Stdout,
	}
	if err := g.run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type loadgen struct {
	base     string
	clients  int
	requests int
	hitRatio float64
	n        int
	protocol string
	cancels  int
	verify   bool
	seed     uint64
	limit    float64       // sustained submissions/s across all clients (0 = unpaced)
	ramp     time.Duration // linear rate ramp window before sustaining
	client   *http.Client
	out      io.Writer

	errs atomic.Uint64
	// lat holds request latencies in a fixed-size log-bucketed histogram:
	// wait-free Observe, bounded memory, quantiles within ~12.5%. The
	// scale exports nanosecond observations as milliseconds.
	lat *telemetry.Histogram
}

// jobEnvelope mirrors breathed's job status JSON (declared locally: the
// wire format, not the server's types, is the contract).
type jobEnvelope struct {
	ID    string `json:"id"`
	Hash  string `json:"hash"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

func (g *loadgen) run() error {
	if g.hitRatio < 0 || g.hitRatio >= 1 {
		return fmt.Errorf("hit ratio %v outside [0, 1)", g.hitRatio)
	}
	if g.lat == nil {
		g.lat = telemetry.NewHistogram(1e-6) // ns observations → ms quantiles
	}
	if err := g.health(); err != nil {
		return err
	}
	before, err := g.stats()
	if err != nil {
		return err
	}

	total := g.clients * g.requests
	universe := int(math.Ceil(float64(total) * (1 - g.hitRatio)))
	if universe < 1 {
		universe = 1
	}
	fmt.Fprintf(g.out, "loadgen: %d clients × %d requests, universe %d distinct runs (target hit ratio %.2f), n=%d %s\n",
		g.clients, g.requests, universe, g.hitRatio, g.n, g.protocol)
	if g.limit > 0 {
		fmt.Fprintf(g.out, "pacing:  %.1f req/s sustained, ramp %s\n", g.limit, g.ramp)
	}

	//breathe:walltime-ok harness wall clock for throughput and pacing
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(g.clients)
	for c := 0; c < g.clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < g.requests; i++ {
				// Pace on the global round-robin index (i-th wave across
				// all clients), so the target rate is fleet-wide rather
				// than per client.
				if d := g.offset(i*g.clients + c); d > 0 {
					//breathe:walltime-ok pacing sleep against the harness clock
					time.Sleep(time.Until(start.Add(d)))
				}
				idx := c*g.requests + i
				g.one(uint64(idx % universe))
			}
		}(c)
	}
	wg.Wait()
	//breathe:walltime-ok harness wall clock for throughput and pacing
	wall := time.Since(start)

	exercises := []string{}
	if g.cancels > 0 {
		for i := 0; i < g.cancels; i++ {
			if err := g.cancelExercise(uint64(1_000_000 + i)); err != nil {
				return fmt.Errorf("cancel exercise: %w", err)
			}
		}
		exercises = append(exercises, fmt.Sprintf("%d mid-run cancel(s) ok", g.cancels))
	}
	if g.verify {
		// The seed is a flag, not a clock read: the same invocation must
		// produce the same request bytes (a fresh daemon per run is the
		// common case; -seed handles re-runs against a long-lived one).
		if err := g.verifyExercise(g.seed); err != nil {
			return fmt.Errorf("byte-identity check: %w", err)
		}
		exercises = append(exercises, "cached bytes == fresh bytes")
	}

	after, err := g.stats()
	if err != nil {
		return err
	}
	g.report(wall, total, before, after, exercises)

	if e := g.errs.Load(); e > 0 {
		return fmt.Errorf("%d of %d requests failed", e, total)
	}
	// Repeated traffic must have been deduplicated somewhere: a warm
	// cache hit when the original finished first, a shared single-flight
	// execution when the duplicate arrived while it was still running.
	// Either way no fresh kernel ran for it.
	served := after["cache_hits"] - before["cache_hits"] + after["shared_flights"] - before["shared_flights"]
	if g.hitRatio > 0 && served == 0 && total > 1 {
		return fmt.Errorf("expected deduplicated requests at hit ratio %.2f, observed none", g.hitRatio)
	}
	return nil
}

// offset returns the scheduled submission time of global request k,
// relative to the run start: a linear ramp to the target rate over
// g.ramp, then sustained pacing at g.limit requests/s. Zero when unpaced.
func (g *loadgen) offset(k int) time.Duration {
	if g.limit <= 0 {
		return 0
	}
	r := g.ramp.Seconds()
	var t float64
	// The ramp window absorbs limit·r/2 requests (area under the linear
	// rate curve); within it the k-th request fires at sqrt(2rk/limit).
	if inRamp := g.limit * r / 2; r > 0 && float64(k) < inRamp {
		t = math.Sqrt(2 * r * float64(k) / g.limit)
	} else {
		t = r + (float64(k)-g.limit*r/2)/g.limit
	}
	return time.Duration(t * float64(time.Second))
}

// one submits request #seed of the mix and waits for its result,
// recording latency and cache status.
func (g *loadgen) one(seed uint64) {
	body := fmt.Sprintf(`{"protocol": %q, "n": %d, "seed": %d}`, g.protocol, g.n, seed)
	//breathe:walltime-ok per-request latency measurement
	start := time.Now()
	env, cached, code, err := g.submit(body)
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		// Back-pressure (429) counts as an error here: the mix is sized
		// to fit the default queue, so rejections mean misconfiguration.
		g.errs.Add(1)
		return
	}
	if !cached {
		if _, err := g.await(env.ID); err != nil {
			g.errs.Add(1)
			return
		}
	}
	//breathe:walltime-ok per-request latency measurement
	g.lat.Observe(uint64(time.Since(start)))
}

func (g *loadgen) submit(body string) (jobEnvelope, bool, int, error) {
	resp, err := g.client.Post(g.base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		return jobEnvelope{}, false, 0, err
	}
	defer resp.Body.Close()
	var env jobEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return jobEnvelope{}, false, resp.StatusCode, err
	}
	cached := resp.Header.Get("X-Breathe-Cache") == "hit"
	return env, cached, resp.StatusCode, nil
}

// await blocks on the result endpoint until the job is terminal and
// returns the response bytes.
func (g *loadgen) await(id string) ([]byte, error) {
	resp, err := g.client.Get(g.base + "/v1/runs/" + id + "/result?wait=1")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result %s: status %d: %s", id, resp.StatusCode, raw)
	}
	return raw, nil
}

// cancelExercise submits a deliberately slow streamed run, cancels it
// after the first trajectory point proves it is mid-execution, and
// confirms the terminal state.
func (g *loadgen) cancelExercise(seed uint64) error {
	body := fmt.Sprintf(`{"n": %d, "seed": %d, "no_self_messages": true, "trajectory_every": 1}`,
		maxInt(g.n, 65536), seed)
	env, cached, _, err := g.submit(body)
	if err != nil {
		return err
	}
	if cached {
		return fmt.Errorf("cancel target was cached; use a fresh seed")
	}
	resp, err := g.client.Get(g.base + "/v1/runs/" + env.ID + "/stream")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		resp.Body.Close()
		return fmt.Errorf("stream of %s closed before the first point", env.ID)
	}
	resp.Body.Close()

	cresp, err := g.client.Post(g.base+"/v1/runs/"+env.ID+"/cancel", "application/json", nil)
	if err != nil {
		return err
	}
	cresp.Body.Close()
	//breathe:walltime-ok polling deadline for the cancel exercise
	deadline := time.Now().Add(30 * time.Second)
	for {
		sresp, err := g.client.Get(g.base + "/v1/runs/" + env.ID)
		if err != nil {
			return err
		}
		var st jobEnvelope
		err = json.NewDecoder(sresp.Body).Decode(&st)
		sresp.Body.Close()
		if err != nil {
			return err
		}
		if st.State == "canceled" {
			return nil
		}
		if st.State == "done" || st.State == "failed" {
			return fmt.Errorf("job %s ended %s instead of canceled", env.ID, st.State)
		}
		//breathe:walltime-ok polling deadline for the cancel exercise
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after cancel", env.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// verifyExercise computes a run nobody else touches, then resubmits it
// and requires the cache to declare a hit and serve the identical bytes.
func (g *loadgen) verifyExercise(seed uint64) error {
	body := fmt.Sprintf(`{"n": %d, "seed": %d}`, g.n, seed)
	env, cached, _, err := g.submit(body)
	if err != nil {
		return err
	}
	if cached {
		return fmt.Errorf("first submission already cached; use a fresh seed")
	}
	fresh, err := g.await(env.ID)
	if err != nil {
		return err
	}
	env2, cached2, _, err := g.submit(body)
	if err != nil {
		return err
	}
	if !cached2 {
		return fmt.Errorf("resubmission was not served from the cache")
	}
	hit, err := g.await(env2.ID)
	if err != nil {
		return err
	}
	if !bytes.Equal(fresh, hit) {
		return fmt.Errorf("cached bytes differ from fresh bytes:\n%s\n%s", fresh, hit)
	}
	return nil
}

func (g *loadgen) health() error {
	resp, err := g.client.Get(g.base + "/healthz")
	if err != nil {
		return fmt.Errorf("breathed unreachable at %s: %w", g.base, err)
	}
	resp.Body.Close()
	return nil
}

func (g *loadgen) stats() (map[string]float64, error) {
	resp, err := g.client.Get(g.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return st, nil
}

func (g *loadgen) report(wall time.Duration, total int, before, after map[string]float64, exercises []string) {
	ok := int(g.lat.Count())
	fmt.Fprintf(g.out, "completed: %d/%d in %.2fs (%.1f req/s), %d errors\n",
		ok, total, wall.Seconds(), float64(ok)/wall.Seconds(), g.errs.Load())
	if ok > 0 {
		fmt.Fprintf(g.out, "latency:   p50 %.2fms  p99 %.2fms  p999 %.2fms  max %.2fms\n",
			g.lat.Quantile(0.50), g.lat.Quantile(0.99), g.lat.Quantile(0.999), g.lat.Max())
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	served := delta("cache_hits") + delta("shared_flights")
	if d := delta("submitted"); d > 0 {
		fmt.Fprintf(g.out, "server:    %.0f submitted, %.0f kernel executions, %.0f cache hits + %.0f shared flights (%.1f%% served without a fresh kernel)\n",
			d, delta("executed"), delta("cache_hits"), delta("shared_flights"), 100*served/d)
		fmt.Fprintf(g.out, "pool:      %.0f engines built, %.0f reused\n",
			delta("engines_built"), delta("engines_reused"))
	}
	for _, e := range exercises {
		fmt.Fprintf(g.out, "exercise:  %s\n", e)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
