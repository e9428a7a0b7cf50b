package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"
	"testing"
)

// TestBucketRoundTrip: every observation lands in a bucket whose bounds
// contain it, indices are monotone, and the relative error of the upper
// bound is within one sub-bucket width.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 15, 16, 17, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345, math.MaxUint64}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histSize {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
		up := bucketUpper(i)
		if v > up {
			t.Errorf("v=%d above its bucket upper %d", v, up)
		}
		if i > 0 {
			lo := bucketUpper(i-1) + 1
			if v < lo {
				t.Errorf("v=%d below its bucket lower %d", v, lo)
			}
		}
		if v >= 1<<(histSub+1) {
			rel := float64(up-v) / float64(v)
			if rel > 1.0/(1<<histSub)+1e-12 {
				t.Errorf("v=%d upper=%d relative error %.3f too large", v, up, rel)
			}
		}
	}
	// exhaustive monotonicity + containment over the low range
	prev = 0
	for v := uint64(1); v < 1<<16; v++ {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("index decreases at v=%d", v)
		}
		prev = i
		if v > bucketUpper(i) {
			t.Fatalf("v=%d above upper(%d)=%d", v, i, bucketUpper(i))
		}
	}
}

// TestHistogramSnapshot: uniform 1..1000 — every bucket of the snapshot
// holds exactly the observations inside its bounds, and the count and
// scaled sum are exact.
func TestHistogramSnapshot(t *testing.T) {
	h := newHistogram(0.5)
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	snap, count, sum := h.snapshot()
	if count != 1000 || sum != 0.5*1000*1001/2 {
		t.Fatalf("count %d, sum %v", count, sum)
	}
	lo := uint64(0)
	for i, c := range snap {
		up := bucketUpper(i)
		want := uint64(0)
		if lo <= 1000 && up >= 1 {
			want = min(up, 1000) - max(lo, 1) + 1
		}
		if c != want {
			t.Errorf("bucket %d [%d, %d]: %d observations, want %d", i, lo, up, c, want)
		}
		if up == math.MaxUint64 {
			break
		}
		lo = up + 1
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines (run under
// -race in CI) and checks the final count and sum.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(1)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()
	_, count, sum := h.snapshot()
	if count != workers*per {
		t.Errorf("count = %d, want %d", count, workers*per)
	}
	n := uint64(workers * per)
	if want := float64(n * (n + 1) / 2); sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

// TestRegistryText renders a registry and validates it with CheckText,
// then pins a few exact lines.
func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ops_total", "operations")
	c.Add(3)
	r.Counter("app_errs_total", "errors", Label{"kind", "io"}).Inc()
	r.Counter("app_errs_total", "errors", Label{"kind", "bad\"quote"}).Add(2)
	g := r.Gauge("app_depth", "queue depth")
	g.Set(-4)
	r.GaugeFunc("app_cap", "capacity", func() float64 { return 128 })
	h := r.Histogram("app_lat_seconds", "latency", 1e-9)
	h.Observe(500)           // 500ns
	h.Observe(2_000_000)     // 2ms
	h.Observe(3_000_000_000) // 3s
	sc := r.ScaledCounter("app_cpu_seconds_total", "cpu", 1e-9)
	sc.Add(1_500_000_000)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fams, err := CheckText(buf.Bytes())
	if err != nil {
		t.Fatalf("CheckText: %v\n%s", err, out)
	}
	for name, kind := range map[string]string{
		"app_ops_total": "counter", "app_depth": "gauge",
		"app_lat_seconds": "histogram", "app_cpu_seconds_total": "counter",
	} {
		if fams[name] != kind {
			t.Errorf("family %s = %q, want %q", name, fams[name], kind)
		}
	}
	for _, want := range []string{
		"app_ops_total 3\n",
		"app_depth -4\n",
		"app_cap 128\n",
		"app_cpu_seconds_total 1.5\n",
		`app_errs_total{kind="bad\"quote"} 2`,
		`app_lat_seconds_bucket{le="+Inf"} 3`,
		"app_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// deterministic output for a fixed state
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("WriteText not deterministic")
	}
}

// TestCheckTextRejects: malformed bodies must be caught.
func TestCheckTextRejects(t *testing.T) {
	bad := []string{
		"orphan_metric 1\n",                // no TYPE
		"# TYPE a counter\na notanumber\n", // bad value
		"# TYPE a histogram\na_bucket{le=\"1\"} 2\na_bucket{le=\"2\"} 1\na_bucket{le=\"+Inf\"} 2\n", // decreasing
		"# TYPE a histogram\na_bucket{le=\"1\"} 2\n",                                                // no +Inf
		"# TYPE a wat\n", // unknown kind
	}
	for _, body := range bad {
		if _, err := CheckText([]byte(body)); err == nil {
			t.Errorf("CheckText accepted %q", body)
		}
	}
}

// TestProbeTrace drives a probe through a tiny synthetic run and checks
// the accounting identities plus the NDJSON schema.
func TestProbeTrace(t *testing.T) {
	var buf bytes.Buffer
	p := NewRunProbe()
	p.SetTrace(NewTraceWriter(&buf, 1, 0))
	var sent, accepted int64
	for round := 0; round < 4; round++ {
		p.BeginRound(round)
		p.Mark(PhaseSenders)
		p.Mark(PhasePlacement)
		p.Mark(PhaseCollision)
		sent += 10
		accepted += 7
		p.EndRound(round, RegimeDense, sent, accepted, 0)
	}
	for round := 4; round < 6; round++ {
		p.BeginRound(round)
		p.Mark(PhaseSenders)
		p.EndRound(round, RegimeQuiet, sent, accepted, 0)
	}
	p.FinishRun(6)
	if tw := p.trace; tw.Err() != nil {
		t.Fatalf("trace error: %v", tw.Err())
	}
	if p.Rounds() != 6 {
		t.Errorf("rounds = %d", p.Rounds())
	}
	if rr := p.RegimeRounds(); rr[RegimeDense] != 4 || rr[RegimeQuiet] != 2 {
		t.Errorf("dense/quiet rounds = %d/%d, want 4/2", rr[RegimeDense], rr[RegimeQuiet])
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // 6 rounds + 1 run
		t.Fatalf("got %d trace lines:\n%s", len(lines), buf.String())
	}
	types := make([]string, len(lines))
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		types[i] = rec["t"].(string)
		if types[i] == "round" {
			ns := rec["ns"].(map[string]any)
			for _, name := range PhaseNames() {
				if _, ok := ns[name]; !ok {
					t.Errorf("round record missing phase %q", name)
				}
			}
			want := 10.0
			if rec["regime"] == "quiet" {
				want = 0
			}
			if rec["sent"].(float64) != want {
				t.Errorf("sent delta = %v, want %v", rec["sent"], want)
			}
		}
		if types[i] == "run" {
			rr := rec["regime_rounds"].(map[string]any)
			if rr["dense"].(float64) != 4 || rr["quiet"].(float64) != 2 || rec["rounds"].(float64) != 6 {
				t.Errorf("run record %s, want 4 dense + 2 quiet of 6 rounds", line)
			}
		}
	}
	if want := "round round round round round round run"; strings.Join(types, " ") != want {
		t.Errorf("record types = %v", types)
	}

	// per-phase totals must sum to (roughly) the probe's observed wall time
	var total int64
	for _, ns := range p.PhaseNanos() {
		if ns < 0 {
			t.Errorf("negative phase time %d", ns)
		}
		total += ns
	}
	if total <= 0 {
		t.Errorf("no wall time accumulated")
	}

	// Reset clears everything
	p.Reset()
	if p.Rounds() != 0 || p.PhaseNanos() != [NumPhases]int64{} {
		t.Error("Reset left state behind")
	}
}

// TestTraceSampling: every=3 keeps rounds 0,3,6,… only; the run record
// always survives.
func TestTraceSampling(t *testing.T) {
	var buf bytes.Buffer
	p := NewRunProbe()
	p.SetTrace(NewTraceWriter(&buf, 3, 0))
	for round := 0; round < 7; round++ {
		p.BeginRound(round)
		p.EndRound(round, RegimePerMessage, 0, 0, 0)
	}
	p.FinishRun(7)
	var rounds, runs int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.Contains(line, `"t":"round"`):
			rounds++
		case strings.Contains(line, `"t":"run"`):
			runs++
		}
	}
	if rounds != 3 || runs != 1 { // rounds 0, 3, 6
		t.Errorf("rounds=%d runs=%d, want 3/1", rounds, runs)
	}
}

// TestTraceByteCap: a tiny cap truncates with the sentinel record and
// stops writing.
func TestTraceByteCap(t *testing.T) {
	var buf bytes.Buffer
	p := NewRunProbe()
	p.SetTrace(NewTraceWriter(&buf, 1, 200))
	for round := 0; round < 100; round++ {
		p.BeginRound(round)
		p.EndRound(round, RegimePerMessage, 0, 0, 0)
	}
	p.FinishRun(100)
	out := buf.String()
	if !strings.Contains(out, `{"t":"truncated"}`) {
		t.Fatalf("no truncation sentinel:\n%s", out)
	}
	if len(out) > 400 {
		t.Errorf("writer kept writing after cap: %d bytes", len(out))
	}
}

// TestBucketIndexAgainstLen pins the index formula against a slow
// reference over random-ish values.
func TestBucketIndexAgainstLen(t *testing.T) {
	slow := func(v uint64) int {
		if v < 1<<(histSub+1) {
			return int(v)
		}
		exp := bits.Len64(v) - 1 - histSub
		return (exp+1)<<histSub + int(v>>uint(exp))&(1<<histSub-1)
	}
	for _, v := range []uint64{16, 31, 32, 1 << 30, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got, want := bucketIndex(v), slow(v); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, want)
		}
	}
	_ = fmt.Sprintf // keep fmt for future debugging
}
