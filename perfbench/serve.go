package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/sim"
)

// serveRate is the serve-mix offered load in requests per second. On a
// 2-core Xeon the backlog starts to grow near 200 requests per second; at
// two thirds of that the queue turned the host's CPU noise into a 17-21%
// run-to-run spread of the latency percentiles, so the mix runs at a
// quarter of it.
const serveRate = 50

// Seeds of fresh serve-mix requests have the top bit clear; warm-up seeds
// have it set, so warm-up never fills the cache with the timed mix.
const warmupSeedBit = 1 << 63

var serveProtocols = []string{api.ProtoBroadcast, api.ProtoConsensus, api.ProtoAsyncOffsets, api.ProtoAsyncSelfSync}

// serveRequest is the request every serve-mix op is built from.
func serveRequest(proto string, n int, crash float64, seed uint64) api.RunRequest {
	r := api.RunRequest{
		Protocol:  proto,
		N:         n,
		Eps:       0.3,
		Seed:      seed,
		CrashProb: crash,
		Kernel:    api.KernelAuto,
		Schedule:  api.ScheduleKeyed,
		Shards:    1,
	}
	if proto == api.ProtoConsensus {
		r.ABias = 0.2
	}
	return r
}

// serveOp is one scheduled request of the mix.
type serveOp struct {
	req api.RunRequest
	at  time.Duration // send time, from the start of the pass
	hit bool          // repeats a request that finished long before
}

// class groups ops whose latencies are alike: every cache hit, or every
// run of one shape, with the joins of those runs.
func (op serveOp) class() string {
	if op.hit {
		return "hit"
	}
	return fmt.Sprintf("%s/%d/%v", op.req.Protocol, op.req.N, op.req.CrashProb)
}

// Kinds of serve-mix slots.
const (
	slotFresh     = iota // one fresh request
	slotFreshJoin        // a fresh request and a duplicate sent with it, which joins its run
	slotHit              // a fresh request at least a second old again, served from the cache
)

// serveConfig is the shape of a fresh request.
type serveConfig struct {
	proto string
	n     int
	crash float64
}

// deck deals its items in a random order, reshuffling when it runs out.
// Dealing from decks instead of drawing each op independently gives every
// window the same composition, so the offered work, and with it the
// latency, varies little between seeds.
type deck[T any] struct {
	r          *rand.Rand
	items, cur []T
}

func (d *deck[T]) next() T {
	if len(d.cur) == 0 {
		d.cur = append(d.cur, d.items...)
		d.r.Shuffle(len(d.cur), func(i, j int) { d.cur[i], d.cur[j] = d.cur[j], d.cur[i] })
	}
	x := d.cur[len(d.cur)-1]
	d.cur = d.cur[:len(d.cur)-1]
	return x
}

// serveMix generates the timed mix: one request every 1/rate seconds for
// the window, except that a join goes out with the request it duplicates.
// Half the requests are fresh, a quarter are joins and a quarter are
// hits; fresh requests cycle through every protocol and size, a quarter of
// them with crashes.
func serveMix(seed uint64, sc scale, window time.Duration) []serveOp {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	kinds := deck[int]{r: r, items: []int{slotFresh, slotFreshJoin, slotHit}}
	configs := deck[serveConfig]{r: r}
	for _, proto := range serveProtocols {
		for _, n := range sc.serveNs {
			for _, crash := range []float64{0, 0, 0, 0.1} {
				configs.items = append(configs.items, serveConfig{proto, n, crash})
			}
		}
	}
	count := int(sc.serveRate * window.Seconds())
	hitLag := int(sc.serveRate / 2) // fresh requests in about a second
	const hitWindow = 256           // far below the default cache's 1024 entries
	var ops []serveOp
	var fresh []int
	for len(ops) < count {
		at := time.Duration(float64(len(ops)) / sc.serveRate * float64(time.Second))
		kind := kinds.next()
		if kind == slotHit && len(fresh) > hitLag {
			back := hitLag + r.IntN(min(hitWindow, len(fresh)-hitLag))
			ops = append(ops, serveOp{req: ops[fresh[len(fresh)-1-back]].req, at: at, hit: true})
			continue
		}
		cfg := configs.next()
		req := serveRequest(cfg.proto, cfg.n, cfg.crash, r.Uint64()&^warmupSeedBit)
		fresh = append(fresh, len(ops))
		ops = append(ops, serveOp{req: req, at: at})
		if kind == slotFreshJoin && len(ops) < count {
			ops = append(ops, serveOp{req: req, at: at})
		}
	}
	return ops
}

// served is the outcome of one request.
type served struct {
	raw     []byte
	jobID   string
	latency time.Duration // from the scheduled send time
	submit  time.Duration // Service.Submit call, direct route only
	cached  bool
	direct  bool
	err     error
}

// httpRun submits req through the HTTP handler and fetches the canonical
// result bytes, waiting for the run to finish.
func httpRun(h http.Handler, req api.RunRequest, tr *tracer, root int, id int64) (raw []byte, jobID string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	s := tr.begin("http.submit", root, id)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	tr.end(s)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		return nil, "", fmt.Errorf("POST /v1/runs: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var st service.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, "", fmt.Errorf("POST /v1/runs: %w", err)
	}
	s = tr.begin("http.result", root, id)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+st.ID+"/result?wait=1", nil))
	tr.end(s)
	if rec.Code != http.StatusOK {
		return nil, st.ID, fmt.Errorf("GET result of %s: HTTP %d: %s", st.ID, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), st.ID, nil
}

// directRun submits req straight to the service and waits for the job.
func directRun(svc *service.Service, req api.RunRequest, tr *tracer, root int, id int64) (*served, error) {
	s := tr.begin("service.Submit", root, id)
	job, err := svc.Submit(req)
	d := tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("Submit: %w", err)
	}
	s = tr.begin("service.Wait", root, id)
	<-job.Done()
	tr.end(s)
	_, raw, ok := job.Response()
	if !ok {
		return nil, fmt.Errorf("job %s ended in state %s: %v", job.ID, job.State(), job.Err())
	}
	return &served{raw: raw, jobID: job.ID, submit: d, cached: job.Cached, direct: true}, nil
}

// servePass sends ops on schedule and waits for every response. In a
// traced pass every second request bypasses HTTP and calls the service
// directly, so that Submit and the wait on the job are timed at their own
// boundary.
func servePass(svc *service.Service, h http.Handler, ops []serveOp, tr *tracer) (out []served, late []float64, depthMax int) {
	out = make([]served, len(ops))
	late = make([]float64, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due).Seconds()
		if tr != nil {
			depthMax = max(depthMax, svc.Stats().QueueDepth)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			id := int64(i)
			root := tr.begin("bench.op", -1, id)
			var res served
			if tr != nil && i%2 == 1 {
				r, err := directRun(svc, ops[i].req, tr, root, id)
				if err != nil {
					res.err = err
				} else {
					res = *r
				}
			} else {
				res.raw, res.jobID, res.err = httpRun(h, ops[i].req, tr, root, id)
			}
			res.latency = time.Since(due)
			tr.end(root)
			out[i] = res
		}(i, due)
	}
	wg.Wait()
	return out, late, depthMax
}

// serveSetup builds a service behind its HTTP handler and warms every
// engine-pool shape on disjoint seeds. The warm-up requests crash almost
// every agent: they build the same engines as the mix at a fraction of
// the run time.
func serveSetup(sc scale, seed uint64) (*service.Service, http.Handler, error) {
	svc := service.New(service.Config{})
	h := service.NewHTTPHandler(svc)
	workers := svc.Stats().Workers
	var wg sync.WaitGroup
	errs := make(chan error, len(sc.serveNs)*len(serveProtocols)*workers)
	k := uint64(0)
	for _, n := range sc.serveNs {
		for _, proto := range serveProtocols {
			for w := 0; w < workers; w++ {
				k++
				req := serveRequest(proto, n, 0.99, warmupSeedBit|seed<<20|k)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := httpRun(h, req, nil, -1, 0); err != nil {
						errs <- err
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		svc.Close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return svc, h, nil
}

// runServe is the serve-mix workload.
func runServe(c *config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	ops := serveMix(c.seed, c.scale, c.seconds)

	// setup builds the service of one pass. It is repeated; setup_s is the
	// median and the last service is kept.
	setup := func() (svc *service.Service, h http.Handler, err error) {
		type built struct {
			svc *service.Service
			h   http.Handler
		}
		b, secs, ws, err := repeatSetup(c.scale.setups, func() (built, error) {
			svc, h, err := serveSetup(c.scale, c.seed)
			return built{svc, h}, err
		}, func(b built) { b.svc.Close() })
		if err != nil {
			return nil, nil, err
		}
		m["setup_s"], o.workingSet = secs, ws
		return b.svc, b.h, nil
	}

	// check verifies one pass: every response passes the run checks, and
	// every repeat of a hash (cache hit or join) carries the bytes of the
	// first response for that hash. It returns the pass digest over the
	// responses in schedule order.
	check := func(out []served) string {
		byHash := map[string][]byte{}
		var all []byte
		for i := range out {
			o.attempted++
			if out[i].err != nil {
				o.fail(out[i].err)
				continue
			}
			var resp api.RunResponse
			if err := json.Unmarshal(out[i].raw, &resp); err != nil {
				o.fail(fmt.Errorf("request %d: %w", i, err))
				continue
			}
			if err := checkResponse(&resp); err != nil {
				o.fail(err)
				continue
			}
			if prev, ok := byHash[resp.Hash]; !ok {
				byHash[resp.Hash] = out[i].raw
			} else if !bytes.Equal(prev, out[i].raw) {
				o.fail(fmt.Errorf("request %d: bytes for %s differ from the first response's", i, resp.Hash))
			}
			all = append(all, out[i].raw...)
		}
		return digestOf(all)
	}

	var untracedMean float64
	if c.trace {
		// The untraced pass is the base of trace.overhead_frac and of the
		// traced-equals-untraced digest check.
		svc, h, err := setup()
		if err != nil {
			return nil, err
		}
		out, _, _ := servePass(svc, h, ops, nil)
		svc.Close()
		o.digest = check(out)
		untracedMean = meanLatency(out)
	}

	svc, h, err := setup()
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	tr := c.tr
	s0, r0, p0 := svc.Stats(), scrape(svc), readProc()
	out, late, depthMax := servePass(svc, h, ops, tr)
	p1, r1, s1 := readProc(), scrape(svc), svc.Stats()
	digest := check(out)
	if o.digest != "" && digest != o.digest {
		o.fail(fmt.Errorf("traced digest %s differs from untraced digest %s", digest, o.digest))
	}
	o.digest = digest

	// The typical latency is the geometric mean over request classes of
	// each class's median. Latencies differ by more than tenfold between
	// classes (a cache hit, a small crash-free run, a large run with
	// crashes), so the median of the pooled mix falls wherever the seed's
	// runs put the boundary between two classes, and moves with it.
	byClass := map[string][]float64{}
	var all []float64
	ok := 0
	var end time.Duration
	for i, r := range out {
		byClass[ops[i].class()] = append(byClass[ops[i].class()], r.latency.Seconds())
		all = append(all, r.latency.Seconds())
		if r.err == nil {
			ok++
		}
		end = max(end, ops[i].at+r.latency)
	}
	var logSum float64
	for _, lat := range byClass {
		logSum += math.Log(median(lat))
	}
	m["op_p50_ms"] = 1e3 * math.Exp(logSum/float64(len(byClass)))
	m["load.op_p99_ms"] = 1e3 * quantile(all, 0.99)
	m["ops_per_s"] = float64(ok) / end.Seconds()
	if !c.trace {
		return o, nil
	}

	m["trace.overhead_frac"] = meanLatency(out)/untracedMean - 1
	m["load.late_p99_ms"] = 1e3 * quantile(late, 0.99)
	m["service.queue_depth_max"] = float64(depthMax)
	reportProc(m, p0, p1, len(out))
	reportStats(m, s0, s1)
	reportRegistry(m, r0, r1)
	serviceLayers(m, svc, out, r0, r1)

	var hits, misses []float64
	for _, r := range out {
		if r.direct && r.err == nil {
			if r.cached {
				hits = append(hits, r.submit.Seconds())
			} else {
				misses = append(misses, r.submit.Seconds())
			}
		}
	}
	m["service.submit_hit_us"] = us(hits)
	m["service.submit_miss_us"] = us(misses)
	m["http.submit_us"] = us(tr.durations("http.submit"))
	m["http.result_us"] = us(tr.durations("http.result"))

	var resps []*api.RunResponse
	for _, r := range out {
		if r.err == nil {
			var resp api.RunResponse
			if err := json.Unmarshal(r.raw, &resp); err != nil {
				return nil, err
			}
			resps = append(resps, &resp)
		}
	}
	if err := timeAPI(m, tr, resps); err != nil {
		return nil, err
	}
	engineTimes(m, c.scale.serveNs)
	addSelfTimes(m, tr)
	return o, nil
}

// serviceLayers adds the kernel-side metrics of the executions behind a
// pass: exact counts over the distinct runs, kernel wall times (Job.Wall)
// and the sim throughput they imply.
func serviceLayers(m map[string]float64, svc *service.Service, out []served, r0, r1 registry) {
	var counts simCounts
	var walls []float64
	var wallSum float64
	seen := map[string]bool{}
	for _, r := range out {
		if r.err != nil {
			continue
		}
		job, ok := svc.Get(r.jobID)
		if !ok || job.Cached {
			continue
		}
		resp, _, ok := job.Response()
		if !ok || seen[resp.Hash] {
			continue
		}
		seen[resp.Hash] = true
		counts.add(resp)
		w := job.Wall().Seconds()
		walls = append(walls, w)
		wallSum += w
	}
	counts.report(m)
	m["sim.quiet_spans"] = r1["breathe_sim_quiet_spans_total"] - r0["breathe_sim_quiet_spans_total"]
	m["service.kernel_p50_ms"] = 1e3 * median(walls)
	m["service.kernel_p99_ms"] = 1e3 * quantile(walls, 0.99)
	if wallSum > 0 {
		m["sim.ns_per_agent_round"] = 1e9 * wallSum / float64(counts.agentRounds)
		m["sim.msgs_per_s"] = float64(counts.sent) / wallSum
	}
}

// engineTimes times sim.NewEngine directly for each population size the
// workload's service builds engines for.
func engineTimes(m map[string]float64, ns []int) {
	var times []float64
	for _, n := range ns {
		run, err := serveRequest(api.ProtoBroadcast, n, 0, 1).Build()
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := sim.NewEngine(run.Config); err == nil {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	m["sim.new_engine_s"] = median(times)
}

// timeAPI times, at the api boundary, the calls the service makes inside
// each request — Hash, Build, and NewResponse plus json.Marshal — once for
// each of the given responses' requests.
func timeAPI(m map[string]float64, tr *tracer, resps []*api.RunResponse) error {
	for i, resp := range resps {
		id := int64(-1 - i)
		req := resp.Request
		s := tr.begin("api.Hash", -1, id)
		_ = req.Hash()
		tr.end(s)
		s = tr.begin("api.Build", -1, id)
		_, err := req.Build()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("api.Encode", -1, id)
		_, err = json.Marshal(api.NewResponse(req, resultOf(resp), resp.Crashed, nil))
		tr.end(s)
		if err != nil {
			return err
		}
	}
	m["api.hash_us"] = us(tr.durations("api.Hash"))
	m["api.build_us"] = us(tr.durations("api.Build"))
	m["api.encode_us"] = us(tr.durations("api.Encode"))
	return nil
}

// resultOf rebuilds the engine result a response was made from.
func resultOf(r *api.RunResponse) sim.Result {
	return sim.Result{
		Protocol:         r.Protocol,
		Rounds:           r.Rounds,
		MessagesSent:     r.MessagesSent,
		MessagesAccepted: r.MessagesAccepted,
		MessagesDropped:  r.MessagesDropped,
		Truncated:        r.Truncated,
		Canceled:         r.Canceled,
		Paths:            r.Paths,
		Opinions:         r.Opinions,
		Undecided:        r.Undecided,
	}
}

func meanLatency(out []served) float64 {
	var sum float64
	for _, r := range out {
		sum += r.latency.Seconds()
	}
	return sum / float64(len(out))
}
