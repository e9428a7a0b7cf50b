package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"breathe/internal/api"
	"breathe/internal/service"
)

func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc := service.New(cfg)
	ts := httptest.NewServer(service.NewHTTPHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, service.JobStatus) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp, st
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/result?wait=1", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestSubmitResultCacheHit drives the submit → result → resubmit cycle
// and checks the cache hit is declared and byte-identical.
func TestSubmitResultCacheHit(t *testing.T) {
	ts, svc := newTestServer(t, service.Config{})
	body := `{"n": 1024, "seed": 5}`

	resp1, st1 := postJSON(t, ts.URL+"/v1/runs", body)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh submit status %d", resp1.StatusCode)
	}
	if got := resp1.Header.Get("X-Breathe-Cache"); got != "miss" {
		t.Errorf("fresh submit cache header %q", got)
	}
	raw1 := fetchResult(t, ts.URL, st1.ID)
	executed := svc.Stats().Executed

	resp2, st2 := postJSON(t, ts.URL+"/v1/runs", `{"seed": 5, "n": 1024}`) // reordered fields
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Breathe-Cache"); got != "hit" {
		t.Errorf("cached submit cache header %q", got)
	}
	if !st2.Cached || st2.State != service.StateDone {
		t.Errorf("cached submit envelope: %+v", st2)
	}
	raw2 := fetchResult(t, ts.URL, st2.ID)
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("cached result bytes differ:\n%s\n%s", raw1, raw2)
	}
	if svc.Stats().Executed != executed {
		t.Error("cache hit executed a kernel")
	}
}

// TestStreamNDJSON reads the trajectory stream to its done line.
func TestStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	_, st := postJSON(t, ts.URL+"/v1/runs", `{"n": 2048, "seed": 2, "trajectory_every": 4}`)

	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	points, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Point *api.TrajectoryPoint `json:"point"`
			Done  *service.JobStatus   `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Point != nil:
			points++
		case line.Done != nil:
			done = true
			if line.Done.State != service.StateDone {
				t.Errorf("stream ended in state %s", line.Done.State)
			}
			if line.Done.Response == nil {
				t.Error("done line carries no response")
			}
		}
	}
	if !done || points == 0 {
		t.Errorf("stream delivered %d points, done=%v", points, done)
	}
}

// TestStreamSSE checks the SSE framing variant.
func TestStreamSSE(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	_, st := postJSON(t, ts.URL+"/v1/runs", `{"n": 1024, "seed": 3, "trajectory_every": 8}`)

	req, _ := http.NewRequest("GET", fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, st.ID), nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	out := buf.String()
	if !strings.Contains(out, "event: point") || !strings.Contains(out, "event: done") {
		t.Errorf("SSE stream missing events:\n%s", out)
	}
}

// TestCancelEndpoint cancels a slow run mid-stream.
func TestCancelEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	_, st := postJSON(t, ts.URL+"/v1/runs",
		`{"n": 65536, "seed": 1, "kernel": "per-agent", "trajectory_every": 1, "max_rounds": 4096}`)

	// Wait until the stream proves the run started.
	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream closed before first point")
	}
	resp.Body.Close()

	cresp, cst := postJSON(t, ts.URL+"/v1/runs/"+st.ID+"/cancel", "")
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", cresp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for cst.State != service.StateCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", cst.State)
		}
		time.Sleep(10 * time.Millisecond)
		var gresp *http.Response
		gresp, cst = postJSON(t, ts.URL+"/v1/runs/"+st.ID+"/cancel", "")
		_ = gresp
	}
}

// TestRejections: malformed, unknown-field, invalid, oversized and
// overflow submissions map to the right HTTP codes, on a server with a
// MaxN cap and on one without (MaxN 0, the engine's own limit).
func TestRejections(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1, MaxN: 10000, QueueDepth: 1})
	uncapped, _ := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	huge := `{"protocol": "` + strings.Repeat("x", 128<<10) + `"}`

	for _, tc := range []struct {
		url  string
		body string
		code int
	}{
		{ts.URL, `{`, http.StatusBadRequest},
		{ts.URL, `{"n": 1024, "turbo": true}`, http.StatusBadRequest}, // unknown field
		{ts.URL, `{"n": 1}`, http.StatusBadRequest},
		{ts.URL, `{"n": 1048576}`, http.StatusBadRequest}, // beyond MaxN
		{ts.URL, huge, http.StatusRequestEntityTooLarge},
		{uncapped.URL, `{"n": 2147483648}`, http.StatusBadRequest}, // beyond int32 agent ids
		{uncapped.URL, `{"n": 8589934592}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(tc.url+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("body %.40s: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	for _, base := range []string{ts.URL, uncapped.URL} {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz after rejections: status %d", resp.StatusCode)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/runs/nope"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestQueueFull429: an overloaded queue answers 429 with Retry-After.
func TestQueueFull429(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1, QueueDepth: 1})
	// Jam the worker with a long per-agent run, fill the queue slot, then
	// overflow. Cancel everything afterwards so Close stays fast.
	var ids []string
	saw429 := false
	for seed := uint64(0); seed < 20 && !saw429; seed++ {
		body := fmt.Sprintf(`{"n": 65536, "seed": %d, "kernel": "per-agent"}`, seed)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		} else {
			var st service.JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			ids = append(ids, st.ID)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Error("queue never overflowed")
	}
	for _, id := range ids {
		http.Post(ts.URL+"/v1/runs/"+id+"/cancel", "application/json", nil)
	}
}

// TestHealthAndStats sanity-checks the operational endpoints.
func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	postJSON(t, ts.URL+"/v1/runs", `{"n": 512, "seed": 1}`)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Submitted == 0 || st.Workers == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
}
