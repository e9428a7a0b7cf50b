package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"breathe/internal/api"
)

// TestKeyedCacheIsKernelBlind: the cache key erases the kernel, so a
// result computed by one kernel must be served — byte-identically,
// without executing anything — to a request naming a different kernel
// and worker count. This is the payoff of the keyed schedule at the
// service layer.
func TestKeyedCacheIsKernelBlind(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	first := api.RunRequest{N: 2048, Seed: 3, Schedule: api.ScheduleKeyed, Kernel: api.KernelAuto}
	j1, err := s.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	if j1.State() != StateDone || j1.Cached {
		t.Fatalf("first job: state %s cached %v err %v", j1.State(), j1.Cached, j1.Err())
	}
	_, raw1, ok := j1.Response()
	if !ok {
		t.Fatal("first job has no response")
	}
	executed := s.Stats().Executed

	// Same run, different kernel and worker count: must be a cache hit.
	second := api.RunRequest{N: 2048, Seed: 3, Schedule: api.ScheduleKeyed, Kernel: api.KernelPerAgent, Shards: 8}
	j2, err := s.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached || j2.State() != StateDone {
		t.Fatalf("cross-kernel submission not served from cache: state %s cached %v", j2.State(), j2.Cached)
	}
	_, raw2, ok := j2.Response()
	if !ok {
		t.Fatal("cached job has no response")
	}
	if !bytes.Equal(raw1, raw2) {
		t.Errorf("cross-kernel cached response differs:\n%s\n%s", raw1, raw2)
	}
	if st := s.Stats(); st.Executed != executed {
		t.Errorf("cross-kernel hit executed a kernel: %d -> %d", executed, st.Executed)
	}

	// A request that omits the schedule is the same run.
	j3, err := s.Submit(api.RunRequest{N: 2048, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Cached {
		t.Error("omitted-schedule submission not served from the keyed cache entry")
	}
}

// TestOmittedScheduleRunsKeyed: a submission that leaves the schedule empty
// runs the keyed schedule — its response names it — and shares its cache
// entry with a submission naming "keyed" explicitly.
func TestOmittedScheduleRunsKeyed(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	j, err := s.Submit(api.RunRequest{N: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	resp, raw, ok := j.Response()
	if !ok {
		t.Fatalf("job ended %s: %v", j.State(), j.Err())
	}
	if resp.Request.Schedule != api.ScheduleKeyed {
		t.Errorf("default schedule not applied: %q", resp.Request.Schedule)
	}

	j2, err := s.Submit(api.RunRequest{N: 512, Seed: 1, Schedule: "Keyed"})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached {
		t.Fatal("explicit keyed submission missed the default's cache entry")
	}
	if _, raw2, _ := j2.Response(); !bytes.Equal(raw, raw2) {
		t.Errorf("explicit keyed response differs:\n%s\n%s", raw, raw2)
	}
}

// TestLegacyScheduleRejected: the retired "legacy" schedule is a
// validation error — Submit refuses it and the HTTP handler answers 400
// with a JSON error, without executing anything.
func TestLegacyScheduleRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(api.RunRequest{N: 512, Seed: 1, Schedule: "legacy"}); err == nil {
		t.Fatal("Submit accepted schedule legacy")
	}

	srv := httptest.NewServer(NewHTTPHandler(s))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"n": 512, "seed": 1, "schedule": "legacy"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "schedule") {
		t.Errorf("legacy schedule: HTTP %d %v, want 400 naming the schedule", resp.StatusCode, body)
	}
	if st := s.Stats(); st.Executed != 0 {
		t.Errorf("rejected request executed %d runs", st.Executed)
	}
}

// TestRetiredKnobsRejected: the retired kernel value "batched" and the
// retired sparse_cutover field, like an eps too small for the schedule
// or the channel, are answered with 400 and an error naming the problem;
// nothing executes and the service keeps serving.
func TestRetiredKnobsRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(NewHTTPHandler(s))
	defer srv.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: body is not JSON: %v", body, err)
		}
		return resp.StatusCode, out
	}
	for _, tc := range []struct{ body, names string }{
		{`{"n": 512, "seed": 1, "kernel": "batched"}`, "per-agent"},
		{`{"n": 512, "seed": 1, "sparse_cutover": -1}`, "sparse_cutover"},
		{`{"n": 64, "eps": 1e-300}`, "eps"},
		{`{"n": 64, "eps": 1e-12}`, "eps"},
	} {
		code, out := post(tc.body)
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, tc.names) {
			t.Errorf("%s: HTTP %d %v, want 400 naming %q", tc.body, code, out, tc.names)
		}
	}
	if st := s.Stats(); st.Executed != 0 {
		t.Errorf("rejected requests executed %d runs", st.Executed)
	}
	if code, out := post(`{"n": 64, "seed": 1}`); code != http.StatusAccepted && code != http.StatusOK {
		t.Errorf("valid request after rejections: HTTP %d %v", code, out)
	}
}
