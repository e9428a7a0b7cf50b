package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"breathe/internal/api"
	"breathe/internal/sim"
	"breathe/internal/telemetry"
)

// bcastRun is one complete run: Build, NewEngine, Run, then the response
// and its canonical bytes.
type bcastRun struct {
	raw     []byte
	resp    api.RunResponse
	quiet   int64
	wall    time.Duration
	runWall time.Duration // Engine.Run alone
}

func completeRun(req api.RunRequest, tr *tracer, id int64, probe *telemetry.RunProbe) (*bcastRun, error) {
	start := time.Now()
	root := tr.begin("bench.op", -1, id)
	s := tr.begin("api.Build", root, id)
	run, err := req.Build()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sim.NewEngine", root, id)
	eng, err := sim.NewEngine(run.Config)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if probe != nil {
		probe.Reset()
		eng.SetTelemetry(probe)
	}
	proto := run.NewProtocol()
	s = tr.begin("sim.Run", root, id)
	runStart := time.Now()
	res := eng.Run(proto)
	runWall := time.Since(runStart)
	tr.end(s)
	s = tr.begin("api.Encode", root, id)
	resp := api.NewResponse(req, res, run.Crashed, proto)
	raw, err := json.Marshal(resp)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	return &bcastRun{raw: raw, resp: resp, quiet: eng.QuietSpans(), wall: time.Since(start), runWall: runWall}, nil
}

// runBcast is the bcast-128k workload: a closed loop of complete keyed
// broadcast runs of one request. Every run must reproduce the first one's
// bytes, including the single-shard run of the traced mode.
func runBcast(c *config) (*outcome, error) {
	procs := runtime.GOMAXPROCS(0)
	req := api.RunRequest{
		Protocol: api.ProtoBroadcast,
		N:        c.scale.bcastN,
		Eps:      0.3,
		Seed:     c.seed,
		Kernel:   api.KernelAuto,
		Schedule: api.ScheduleKeyed,
		Shards:   procs,
	}
	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics

	// Set-up is what a caller pays before the first run: Build and
	// NewEngine. It is repeated and the median reported.
	type built struct {
		run *api.Run
		eng *sim.Engine
	}
	var engines []float64
	_, secs, ws, err := repeatSetup(c.scale.setups, func() (built, error) {
		run, err := req.Build()
		if err != nil {
			return built{}, err
		}
		t0 := time.Now()
		eng, err := sim.NewEngine(run.Config)
		engines = append(engines, time.Since(t0).Seconds())
		return built{run, eng}, err
	}, func(built) {})
	if err != nil {
		return nil, err
	}
	m["setup_s"], o.workingSet = secs, ws
	m["sim.new_engine_s"] = median(engines)

	var first *bcastRun
	check := func(r *bcastRun) {
		o.attempted++
		if err := checkResponse(&r.resp); err != nil {
			o.fail(err)
			return
		}
		if first == nil {
			first = r
			o.digest = digestOf(r.raw)
		} else if string(r.raw) != string(first.raw) {
			o.fail(fmt.Errorf("run bytes differ from the first run's (digest %s vs %s)", digestOf(r.raw), o.digest))
		}
	}

	// The traced mode first makes one untraced run, the base of
	// trace.overhead_frac and of the single-shard speedup.
	var untraced time.Duration
	if c.trace {
		r, err := completeRun(req, nil, 0, nil)
		if err != nil {
			return nil, err
		}
		check(r)
		untraced = r.wall
	}

	tr := c.tr
	var probe *telemetry.RunProbe
	if c.trace {
		probe = telemetry.NewRunProbe()
	}
	var walls []float64
	var phases [telemetry.NumPhases]int64
	var runWalls []float64
	p0 := readProc()
	for id := int64(1); len(walls) == 0 || time.Since(p0.at) < c.seconds; id++ {
		if c.trace {
			s := tr.begin("api.Hash", -1, id)
			_ = req.Hash()
			tr.end(s)
		}
		r, err := completeRun(req, tr, id, probe)
		if err != nil {
			return nil, err
		}
		check(r)
		walls = append(walls, r.wall.Seconds())
		runWalls = append(runWalls, r.runWall.Seconds())
		if probe != nil {
			for i, ns := range probe.PhaseNanos() {
				phases[i] += ns
			}
		}
	}
	p1 := readProc()
	m["op_p50_ms"] = 1e3 * median(walls)
	m["load.op_p99_ms"] = 1e3 * quantile(walls, 0.99)
	m["ops_per_s"] = float64(len(walls)) / p1.at.Sub(p0.at).Seconds()
	reportProc(m, p0, p1, len(walls))

	if !c.trace || first == nil {
		return o, nil
	}
	var counts simCounts
	counts.add(&first.resp)
	counts.report(m)
	m["sim.quiet_spans"] = float64(first.quiet)
	m["sim.ns_per_agent_round"] = 1e9 * median(runWalls) / float64(counts.agentRounds)
	m["sim.msgs_per_s"] = float64(counts.sent) / median(runWalls)
	for i, name := range telemetry.PhaseNames() {
		m["sim.phase."+name+"_s"] = float64(phases[i]) / 1e9 / float64(len(walls))
	}
	m["api.build_us"] = us(tr.durations("api.Build"))
	m["api.encode_us"] = us(tr.durations("api.Encode"))
	m["api.hash_us"] = us(tr.durations("api.Hash"))
	m["trace.overhead_frac"] = median(walls)/untraced.Seconds() - 1
	addSelfTimes(m, tr)

	// The same run on one shard: the single-threaded baseline. Its bytes
	// must equal the multi-shard run's.
	serial := req
	serial.Shards = 1
	r, err := completeRun(serial, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	check(r)
	m["sim.parallel_speedup"] = r.wall.Seconds() / untraced.Seconds()
	return o, nil
}

func digestOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
