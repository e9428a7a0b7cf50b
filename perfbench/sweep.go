package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/sweep"
)

// timedRunner wraps the public sweep.Runner interface: it times every run,
// records a span for it, and keeps the responses for the output checks.
type timedRunner struct {
	inner sweep.Runner
	tr    *tracer
	ids   atomic.Int64

	mu    sync.Mutex
	lat   []float64 // seconds per Run call
	resps []*api.RunResponse
	errs  []error
}

func (r *timedRunner) Run(req api.RunRequest) (*api.RunResponse, []byte, bool, error) {
	id := r.ids.Add(1)
	s := r.tr.begin("sweep.Runner.Run", -1, id)
	t0 := time.Now()
	resp, raw, cached, err := r.inner.Run(req)
	d := time.Since(t0)
	r.tr.end(s)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err != nil:
		r.errs = append(r.errs, err)
	case cached:
		r.errs = append(r.errs, fmt.Errorf("run %s was served from the cache; every sweep-async seed must be fresh", resp.Hash))
	default:
		r.lat = append(r.lat, d.Seconds())
		r.resps = append(r.resps, resp)
	}
	return resp, raw, cached, err
}

// take returns and clears what the runner recorded.
func (r *timedRunner) take() (lat []float64, resps []*api.RunResponse, errs []error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lat, resps, errs = r.lat, r.resps, r.errs
	r.lat, r.resps, r.errs = nil, nil, nil
	return lat, resps, errs
}

// sweepSpecs are the two grids of one pass, with seeds from base on.
func sweepSpecs(sc scale, base uint64) []sweep.Spec {
	common := sweep.Spec{
		Epss:     []float64{0.3},
		Kernel:   api.KernelAuto,
		Schedule: api.ScheduleKeyed,
		Shards:   1,
		BaseSeed: base,
	}
	selfsync := common
	selfsync.Protocols = []string{api.ProtoAsyncSelfSync}
	selfsync.Ns = []int{sc.sweepN}
	selfsync.CrashProbs = []float64{0, 0.1}
	selfsync.Seeds = sc.sweepSeeds
	thinned := common
	thinned.Protocols = []string{api.ProtoBroadcast}
	thinned.Ns = []int{sc.sparseN}
	thinned.CrashProbs = []float64{0.97}
	thinned.Seeds = sc.sparseSeeds
	return []sweep.Spec{selfsync, thinned}
}

// passSeeds is the first seed of pass p. Pass seeds and warm-up seeds
// (the top bit set) never meet, so every timed run is fresh.
func passSeeds(seed uint64, p int) uint64 { return seed<<24 + uint64(p)<<8 }

// sweepPass runs one pass of both grids and returns its digest: a SHA-256
// over the cells' own digests of their canonical response bytes.
func sweepPass(sc scale, runner sweep.Runner, base uint64) (string, error) {
	h := sha256.New()
	for _, spec := range sweepSpecs(sc, base) {
		res, err := sweep.Run(spec, runner, sweep.Options{Concurrency: runtime.GOMAXPROCS(0)})
		if err != nil {
			return "", err
		}
		for _, cell := range res.Cells {
			h.Write([]byte(cell.Digest))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sweepSetup builds a service and warms each worker's engine for every
// grid shape on disjoint seeds, with nearly every agent crashed so the
// warm-up runs are short.
func sweepSetup(sc scale, seed uint64) (*service.Service, error) {
	svc := service.New(service.Config{})
	workers := svc.Stats().Workers
	warm := sweepSpecs(sc, warmupSeedBit|seed<<20)
	for i := range warm {
		warm[i].CrashProbs = []float64{0.99}
		warm[i].Seeds = workers
	}
	runner := sweep.NewLocalRunner(svc)
	for _, spec := range warm {
		if _, err := sweep.Run(spec, runner, sweep.Options{Concurrency: workers}); err != nil {
			svc.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return svc, nil
}

// runSweep is the sweep-async workload: passes of fresh seeds until the
// window ends, each pass one sweep.Run per grid. The first pass is run
// again on a fresh service afterwards and must reproduce its digest.
func runSweep(c *config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics

	// setup is repeated; setup_s is the median and the last service is
	// kept.
	setup := func() (*service.Service, error) {
		svc, secs, ws, err := repeatSetup(c.scale.setups, func() (*service.Service, error) {
			return sweepSetup(c.scale, c.seed)
		}, (*service.Service).Close)
		if err != nil {
			return nil, err
		}
		m["setup_s"], o.workingSet = secs, ws
		return svc, nil
	}
	check := func(r *timedRunner) ([]float64, []*api.RunResponse) {
		lat, resps, errs := r.take()
		for _, err := range errs {
			o.attempted++
			o.fail(err)
		}
		for _, resp := range resps {
			o.attempted++
			if err := checkResponse(resp); err != nil {
				o.fail(err)
			}
		}
		return lat, resps
	}

	// untracedPass runs pass 0 on a service of its own. In the traced mode
	// it runs first and is the base of trace.overhead_frac; otherwise it
	// runs last, as the repeat check.
	untracedPass := func() (digest string, wall float64, err error) {
		svc, err := sweepSetup(c.scale, c.seed)
		if err != nil {
			return "", 0, err
		}
		defer func() {
			svc.Close()
			debug.FreeOSMemory()
		}()
		r := &timedRunner{inner: sweep.NewLocalRunner(svc)}
		t0 := time.Now()
		digest, err = sweepPass(c.scale, r, passSeeds(c.seed, 0))
		wall = time.Since(t0).Seconds()
		check(r)
		return digest, wall, err
	}
	var untracedWall float64
	if c.trace {
		var err error
		if o.digest, untracedWall, err = untracedPass(); err != nil {
			return nil, err
		}
	}

	svc, err := setup()
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	tr := c.tr
	runner := &timedRunner{inner: sweep.NewLocalRunner(svc), tr: tr}
	var lat, passWalls []float64
	var firstResps []*api.RunResponse
	var s0, s1 service.Stats
	var r0, r1 registry
	p0 := readProc()
	for p := 0; p == 0 || time.Since(p0.at) < c.seconds; p++ {
		if p == 0 {
			s0, r0 = svc.Stats(), scrape(svc)
		}
		t0 := time.Now()
		d, err := sweepPass(c.scale, runner, passSeeds(c.seed, p))
		if err != nil {
			return nil, err
		}
		passWalls = append(passWalls, time.Since(t0).Seconds())
		l, resps := check(runner)
		lat = append(lat, l...)
		if p == 0 {
			s1, r1 = svc.Stats(), scrape(svc)
			firstResps = resps
			if o.digest != "" && d != o.digest {
				o.fail(fmt.Errorf("traced pass digest %s differs from the untraced pass's %s", d, o.digest))
			}
			o.digest = d
		}
	}
	p1 := readProc()
	// A sweep user waits for the whole grid, so the operation is a pass.
	m["op_p50_ms"] = 1e3 * median(passWalls)
	m["load.op_p99_ms"] = 1e3 * quantile(passWalls, 0.99)
	m["ops_per_s"] = float64(len(passWalls)) / p1.at.Sub(p0.at).Seconds()

	if !c.trace {
		d, _, err := untracedPass()
		if err != nil {
			return nil, err
		}
		if d != o.digest {
			o.fail(fmt.Errorf("pass 0 on a fresh service gave digest %s, first run gave %s", d, o.digest))
		}
		return o, nil
	}

	m["trace.overhead_frac"] = passWalls[0]/untracedWall - 1
	m["sweep.runner_p50_s"] = median(lat)
	reportProc(m, p0, p1, len(lat))
	reportStats(m, s0, s1)
	reportRegistry(m, r0, r1)
	var counts simCounts
	for _, r := range firstResps {
		counts.add(r)
	}
	counts.report(m)
	m["sim.quiet_spans"] = r1["breathe_sim_quiet_spans_total"] - r0["breathe_sim_quiet_spans_total"]
	if wall := r1["breathe_run_wall_seconds_sum"] - r0["breathe_run_wall_seconds_sum"]; wall > 0 {
		m["sim.ns_per_agent_round"] = 1e9 * wall / float64(counts.agentRounds)
		m["sim.msgs_per_s"] = float64(counts.sent) / wall
	}
	m["service.kernel_p50_ms"] = 1e3 * histQuantile(r0, r1, "breathe_run_wall_seconds", 0.5)
	m["service.kernel_p99_ms"] = 1e3 * histQuantile(r0, r1, "breathe_run_wall_seconds", 0.99)
	if err := timeAPI(m, tr, firstResps); err != nil {
		return nil, err
	}
	engineTimes(m, []int{c.scale.sweepN, c.scale.sparseN})
	addSelfTimes(m, tr)
	return o, nil
}
