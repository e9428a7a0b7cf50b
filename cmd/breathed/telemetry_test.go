package main

// Handler-level tests for the observability surface: the /metrics
// Prometheus exposition, the per-job NDJSON trace endpoint, the new
// queue_depth / engines_busy stats gauges, and scrape-vs-submit
// concurrency (meaningful under -race).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"breathe/internal/api"
	"breathe/internal/service"
	"breathe/internal/telemetry"
)

// TestStatsGauges: /v1/stats carries the snapshot gauges by their wire
// names, and a completed run leaves engines_busy back at zero.
func TestStatsGauges(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	_, st := postJSON(t, ts.URL+"/v1/runs", `{"n": 1024, "seed": 9}`)
	fetchResult(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, key := range []string{`"queue_depth"`, `"engines_busy"`, `"queue_cap"`, `"workers"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("/v1/stats missing %s:\n%s", key, buf.String())
		}
	}
	var stats service.Stats
	if err := json.Unmarshal(buf.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.EnginesBusy != 0 {
		t.Errorf("engines_busy = %d with no run in flight", stats.EnginesBusy)
	}
	if stats.Executed == 0 {
		t.Errorf("stats saw no executed run: %+v", stats)
	}
}

// TestMetricsEndpoint: after one executed run, /metrics parses as
// Prometheus text and carries the kernel phase decomposition, the run
// histograms and the lifecycle counters.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	_, st := postJSON(t, ts.URL+"/v1/runs", `{"n": 2048, "seed": 4}`)
	fetchResult(t, ts.URL, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	families, err := telemetry.CheckText(buf.Bytes())
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, buf.String())
	}
	for name, kind := range map[string]string{
		"breathe_sim_phase_seconds_total": "counter",
		"breathe_sim_rounds_total":        "counter",
		"breathe_run_wall_seconds":        "histogram",
		"breathe_queue_wait_seconds":      "histogram",
		"breathe_request_seconds":         "histogram",
		"breathe_submitted_total":         "counter",
		"breathe_rejected_total":          "counter",
		"breathe_queue_depth":             "gauge",
		"breathe_engines_busy":            "gauge",
	} {
		if got, ok := families[name]; !ok || got != kind {
			t.Errorf("family %s: got (%q, %v), want %s", name, got, ok, kind)
		}
	}
	// The executed run must have billed wall time to at least one phase.
	if !strings.Contains(buf.String(), `breathe_sim_phase_seconds_total{phase="barrier"}`) {
		t.Error("no per-phase samples in exposition")
	}
}

// TestTraceEndpoint: trace_every runs download an NDJSON trace ending in
// a run record; plain jobs and cache hits 404; traced resubmissions of a
// cached hash recompute rather than serving the cache.
func TestTraceEndpoint(t *testing.T) {
	ts, svc := newTestServer(t, service.Config{})

	// Plain job: no trace.
	_, plain := postJSON(t, ts.URL+"/v1/runs", `{"n": 1024, "seed": 6}`)
	fetchResult(t, ts.URL, plain.ID)
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/trace", ts.URL, plain.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced job trace status %d", resp.StatusCode)
	}

	// Traced resubmission of the now-cached hash: must bypass the cache
	// (a hit has no kernel run to trace) and produce a trace.
	executed := svc.Stats().Executed
	resp2, traced := postJSON(t, ts.URL+"/v1/runs", `{"n": 1024, "seed": 6, "trace_every": 2}`)
	if got := resp2.Header.Get("X-Breathe-Cache"); got != "miss" {
		t.Errorf("traced resubmit was a cache %s", got)
	}
	raw := fetchResult(t, ts.URL, traced.ID)
	if svc.Stats().Executed == executed {
		t.Error("traced resubmit did not execute")
	}

	tresp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/trace", ts.URL, traced.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tresp.StatusCode)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type %q", ct)
	}
	var last map[string]any
	lines := 0
	sc := bufio.NewScanner(tresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
	}
	if lines == 0 || last["t"] != "run" {
		t.Errorf("trace has %d lines, last record %v", lines, last)
	}

	// The trace changed nothing: canonical bytes match the cached run.
	cached := fetchResult(t, ts.URL, plain.ID)
	if !bytes.Equal(raw, cached) {
		t.Error("traced run bytes differ from untraced run bytes")
	}
}

// TestTraceRegimeAttribution: every round of a run is in its trace, so
// the trace's run record credits each of the five regimes, quiet
// included, with exactly the rounds the response's path counters give it.
// A plain broadcast runs dense tree rounds, a crash-thinned broadcast
// runs its Stage II on the sparse walker, and a self-sync run breathes
// through quiet spans.
func TestTraceRegimeAttribution(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		body   string
		regime string // one regime the run must take
	}{
		{`{"n": 4096, "seed": 7, "trace_every": 4}`, "dense"},
		{`{"n": 131072, "crash_prob": 0.95, "seed": 1, "trace_every": 100000}`, "sparse"},
		{`{"protocol": "async-selfsync", "n": 4096, "seed": 1, "trace_every": 100000}`, "quiet"},
	} {
		_, st := postJSON(t, ts.URL+"/v1/runs", tc.body)
		var resp api.RunResponse
		if err := json.Unmarshal(fetchResult(t, ts.URL, st.ID), &resp); err != nil {
			t.Fatal(err)
		}
		p := resp.Paths
		paths := map[string]int64{
			"quiet": p.Quiet, "per-message": p.PerMessage,
			"dense": p.Dense, "sharded": p.Sharded, "sparse": p.Sparse,
		}
		if paths[tc.regime] == 0 {
			t.Errorf("%s: no %s rounds: %+v", tc.body, tc.regime, p)
		}

		tresp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/trace", ts.URL, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := io.ReadAll(tresp.Body)
		tresp.Body.Close()
		if err != nil || tresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: trace status %d: %v", tc.body, tresp.StatusCode, err)
		}
		lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
		var run struct {
			T       string           `json:"t"`
			Rounds  int              `json:"rounds"`
			Regimes map[string]int64 `json:"regime_rounds"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &run); err != nil || run.T != "run" {
			t.Fatalf("%s: last trace line %q is not a run record: %v", tc.body, lines[len(lines)-1], err)
		}
		if run.Rounds != resp.Rounds {
			t.Errorf("%s: run record rounds %d, response %d", tc.body, run.Rounds, resp.Rounds)
		}
		for _, name := range telemetry.RegimeNames() {
			if run.Regimes[name] != paths[name] {
				t.Errorf("%s: %s rounds: trace %d, paths %d", tc.body, name, run.Regimes[name], paths[name])
			}
		}
	}
}

// TestConcurrentScrapes hammers /metrics and /v1/stats while submissions
// execute — the scrape path must be safe against concurrent metric
// updates (run under -race in CI).
func TestConcurrentScrapes(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			_, st := postJSON(t, ts.URL+"/v1/runs",
				fmt.Sprintf(`{"n": 1024, "seed": %d, "trace_every": 8}`, seed))
			fetchResult(t, ts.URL, st.ID)
		}(i + 100)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{"/metrics", "/v1/stats"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s status %d", path, resp.StatusCode)
					}
					if path == "/metrics" {
						if _, err := telemetry.CheckText(buf.Bytes()); err != nil {
							t.Errorf("mid-run /metrics does not parse: %v", err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
