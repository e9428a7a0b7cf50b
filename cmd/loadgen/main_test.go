package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"breathe/internal/service"
)

// TestEndToEnd runs the whole load generator — concurrent clients, the
// cancel exercise and the byte-identity check — against a real service
// mounted on httptest.
func TestEndToEnd(t *testing.T) {
	svc := service.New(service.Config{Workers: 4, QueueDepth: 256})
	ts := httptest.NewServer(service.NewHTTPHandler(svc))
	defer func() {
		ts.Close()
		svc.Close()
	}()

	var out bytes.Buffer
	g := &loadgen{
		base:     ts.URL,
		clients:  8,
		requests: 4,
		hitRatio: 0.5,
		n:        512,
		protocol: "broadcast",
		cancels:  1,
		verify:   true,
		seed:     2_000_000, // the -seed default: outside the mix and cancel ranges
		client:   &http.Client{Timeout: 2 * time.Minute},
		out:      &out,
	}
	if err := g.run(); err != nil {
		t.Fatalf("loadgen failed: %v\noutput:\n%s", err, out.String())
	}
	if g.errs.Load() != 0 {
		t.Errorf("%d request errors", g.errs.Load())
	}
	report := out.String()
	for _, want := range []string{"completed:", "latency:", "p999", "mid-run cancel", "cached bytes == fresh bytes"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if int(g.lat.Count()) != 8*4 {
		t.Errorf("latency histogram saw %d requests, want %d", g.lat.Count(), 8*4)
	}

	st := svc.Stats()
	// 8×4 requests over a 16-run universe plus the two exercises: the
	// cache/single-flight must have absorbed the rest.
	if st.Executed >= st.Submitted {
		t.Errorf("no dedup: executed %d of %d submitted", st.Executed, st.Submitted)
	}
	// The canceled run is booked when its engine reaches the next round
	// barrier, which may come after the exercise has seen its job
	// canceled: wait for it, with a deadline.
	for deadline := time.Now().Add(30 * time.Second); st.Canceled < 1 && time.Now().Before(deadline); st = svc.Stats() {
		time.Sleep(10 * time.Millisecond)
	}
	if st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1 (the exercise)", st.Canceled)
	}
}

// TestPacingOffsets pins the -limit/-ramp schedule: unpaced requests fire
// immediately, sustained pacing spaces them at 1/limit, and the ramp
// transitions continuously into the sustained rate.
func TestPacingOffsets(t *testing.T) {
	unpaced := &loadgen{}
	if d := unpaced.offset(1000); d != 0 {
		t.Errorf("unpaced offset = %v", d)
	}

	flat := &loadgen{limit: 100}
	if d := flat.offset(0); d != 0 {
		t.Errorf("first paced request at %v", d)
	}
	if d := flat.offset(100); d != time.Second {
		t.Errorf("request 100 at 100 req/s scheduled at %v, want 1s", d)
	}

	// limit 100 req/s, ramp 2s → the ramp absorbs 100 requests; request
	// 100 fires exactly at the end of the ramp, 150 half a second later.
	ramped := &loadgen{limit: 100, ramp: 2 * time.Second}
	if d := ramped.offset(100); d != 2*time.Second {
		t.Errorf("ramp boundary at %v, want 2s", d)
	}
	if d := ramped.offset(150); d != 2500*time.Millisecond {
		t.Errorf("post-ramp request at %v, want 2.5s", d)
	}
	// Inside the ramp the schedule is sqrt-shaped: request 25 of the 100
	// the window absorbs fires at sqrt(2·2·25/100) = 1s.
	if d := ramped.offset(25); d != time.Second {
		t.Errorf("mid-ramp request at %v, want 1s", d)
	}
	// Offsets are monotone across the boundary.
	prev := time.Duration(-1)
	for k := 0; k < 300; k++ {
		if d := ramped.offset(k); d < prev {
			t.Fatalf("offset(%d) = %v < offset(%d) = %v", k, d, k-1, prev)
		} else {
			prev = d
		}
	}
}

// TestBadHitRatio rejects out-of-range ratios before touching the server.
func TestBadHitRatio(t *testing.T) {
	g := &loadgen{hitRatio: 1.0, client: http.DefaultClient, out: &bytes.Buffer{}}
	if err := g.run(); err == nil {
		t.Error("hit ratio 1.0 accepted")
	}
}
