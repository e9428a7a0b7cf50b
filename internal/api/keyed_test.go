package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// TestKeyedHashErasesKernel: naming the one kernel, or omitting it, must
// not move the hash, whether the request names the schedule or not; nor
// may the worker count.
func TestKeyedHashErasesKernel(t *testing.T) {
	base := RunRequest{N: 1024, Seed: 7, Schedule: ScheduleKeyed}
	h := base.Hash()
	for _, kernel := range []string{"", KernelAuto, "Auto"} {
		r := RunRequest{N: 1024, Seed: 7, Schedule: ScheduleKeyed, Kernel: kernel, Shards: 8}
		if got := r.Hash(); got != h {
			t.Errorf("keyed kernel=%q changed the hash: %s vs %s", kernel, got, h)
		}
	}
	if omitted := (RunRequest{N: 1024, Seed: 7, Kernel: KernelAuto}).Hash(); omitted != h {
		t.Errorf("omitted schedule hashed apart from keyed: %s vs %s", omitted, h)
	}
	if spelled := (RunRequest{N: 1024, Seed: 7, Schedule: "Keyed"}).Hash(); spelled != h {
		t.Error("schedule name is not case-normalized before hashing")
	}
}

// TestKeyedCanonicalErasesKernel: the canonical request embedded in every
// keyed response names kernel auto whether the request named it or not,
// so a cached response serves either request byte-identically.
func TestKeyedCanonicalErasesKernel(t *testing.T) {
	a := RunRequest{N: 2048, Seed: 1, Schedule: ScheduleKeyed, Shards: 16}
	b := RunRequest{N: 2048, Seed: 1, Schedule: ScheduleKeyed, Kernel: KernelAuto}
	ca, cb := a.Canonical(), b.Canonical()
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("keyed canonical forms differ:\n%+v\n%+v", ca, cb)
	}
	if ca.Kernel != KernelAuto {
		t.Errorf("keyed canonical kernel = %q, want %q", ca.Kernel, KernelAuto)
	}
	// A request that omits the schedule canonicalizes to the same form.
	oc := RunRequest{N: 2048, Seed: 1, Kernel: KernelAuto}.Canonical()
	if !reflect.DeepEqual(oc, ca) {
		t.Errorf("omitted-schedule canonical form differs:\n%+v\n%+v", oc, ca)
	}
}

func TestValidateRejectsUnknownSchedule(t *testing.T) {
	for _, schedule := range []string{"counter", "legacy", "Legacy"} {
		r := RunRequest{N: 100, Schedule: schedule}
		r.Normalize()
		if err := r.Validate(); err == nil {
			t.Errorf("Validate accepted schedule %q", schedule)
		}
		if _, err := (RunRequest{N: 100, Schedule: schedule}).Build(); err == nil {
			t.Errorf("Build accepted schedule %q", schedule)
		}
	}
}

// TestOmittedScheduleHashPinned pins the content address of a request
// that omits the schedule to the address the same request has when it
// names "keyed" explicitly — the preimage still reads kernel=auto and
// schedule=keyed — so every stored cache entry, sweep checkpoint and
// benchmark digest keeps its address. The value is the broadcast's
// sampler-3 address: its preimage ends in "sampler=3".
func TestOmittedScheduleHashPinned(t *testing.T) {
	const want = "89a4d63e1692b3f44bb4cb55fce7a9d90819d9b08cc9fbbb085cde187abce299"
	for _, r := range []RunRequest{
		{N: 4096, Seed: 7},
		{N: 4096, Seed: 7, Schedule: ScheduleKeyed},
	} {
		if got := r.Hash(); got != want {
			t.Errorf("%+v: hash %s, want %s", r, got, want)
		}
	}
	if c := (RunRequest{N: 4096, Seed: 7}).Canonical(); c.Schedule != ScheduleKeyed || c.Kernel != KernelAuto {
		t.Errorf("canonical schedule/kernel = %q/%q, want keyed/auto", c.Schedule, c.Kernel)
	}
}

// TestKernelFieldHashPinned pins the content address of {"n":1024,"seed":7}:
// naming kernel auto and schedule keyed keeps the address, and naming the
// retired per-agent kernel is an error that names auto. The value is the
// broadcast's sampler-3 address: the preimage it had before the kernel
// field lost its second value, plus a "sampler=3" line.
func TestKernelFieldHashPinned(t *testing.T) {
	const want = "0699598a1b40f15778d268d3c1f2897cab620ecf45a66aec2be18f145dbb6513"
	for _, body := range []string{
		`{"n":1024,"seed":7}`,
		`{"n":1024,"seed":7,"kernel":"auto","schedule":"keyed"}`,
	} {
		var r RunRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		if got := r.Hash(); got != want {
			t.Errorf("%s: hash %s, want %s", body, got, want)
		}
	}
	var r RunRequest
	if err := json.Unmarshal([]byte(`{"n":1024,"seed":7,"kernel":"per-agent"}`), &r); err != nil {
		t.Fatal(err)
	}
	r.Normalize()
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), `"auto"`) {
		t.Errorf("kernel per-agent: Validate = %v, want an error naming \"auto\"", err)
	}
}

// runResponseBytes builds, executes and serializes one request; with
// perAgent set the protocol runs behind simtest.PerAgent.
func runResponseBytes(t *testing.T, req RunRequest, perAgent bool) []byte {
	t.Helper()
	run, err := req.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", req, err)
	}
	p := run.NewProtocol()
	exec := p
	if perAgent {
		exec = simtest.PerAgent(p)
	}
	res, err := sim.Run(run.Config, exec)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	raw, err := json.Marshal(NewResponse(req, res, run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// identityScenarios are the scenario classes of the keyed identity
// matrices (TestKeyedCrossKernelResponseBytes and
// TestTelemetryByteIdentityMatrix). The baselines run capped: identity
// needs many rounds of every regime, not the whole schedule. A scenario
// with sharded set must run sharded tree rounds, so the matrices' worker
// counts compare them.
var identityScenarios = []struct {
	name    string
	req     RunRequest
	sharded bool
}{
	// Large enough that tree rounds run sharded (49152 ≥ shardMinN); its
	// first sharded round is 381, so the cap takes 39 of them along with
	// the scatter and sparse rounds before.
	{name: "broadcast-sharded", req: RunRequest{Protocol: ProtoBroadcast, N: 49152, Seed: 11, MaxRounds: 420}, sharded: true},
	{name: "consensus", req: RunRequest{Protocol: ProtoConsensus, N: 8192, Seed: 12, ABias: 0.2}},
	{name: "async-offsets", req: RunRequest{Protocol: ProtoAsyncOffsets, N: 8192, Seed: 13, MaxRounds: 400}},
	{name: "async-selfsync", req: RunRequest{Protocol: ProtoAsyncSelfSync, N: 8192, Seed: 14, MaxRounds: 400}},
	{name: "crash-plan", req: RunRequest{Protocol: ProtoBroadcast, N: 8192, Seed: 15, CrashProb: 0.1}},
	{name: "drop-no-self", req: RunRequest{Protocol: ProtoBroadcast, N: 4096, Seed: 16, NoSelfMessages: true, DropProb: 0.05}},
	{name: "broadcast-no-breathe", req: RunRequest{Protocol: ProtoBroadcastNoBreathe, N: 4096, Seed: 17}},
	{name: "immediate-forward", req: RunRequest{Protocol: ProtoImmediateForward, N: 4096, Seed: 18, MaxRounds: 300}},
	{name: "voter", req: RunRequest{Protocol: ProtoVoter, N: 4096, Seed: 19, MaxRounds: 300, DropProb: 0.05}},
	{name: "two-choice-no-self", req: RunRequest{Protocol: ProtoTwoChoice, N: 4096, Seed: 20, MaxRounds: 300, NoSelfMessages: true}},
	{name: "silent-wait-crash", req: RunRequest{Protocol: ProtoSilentWait, N: 4096, Seed: 21, CrashProb: 0.1}},
}

// TestKeyedCrossKernelResponseBytes is the end-to-end acceptance suite:
// for every scenario class, bulk and per-agent collection (simtest.PerAgent)
// at every worker count must serialize to byte-identical canonical
// RunResponse JSON under the keyed schedule — the exact bytes the service
// cache stores and serves.
func TestKeyedCrossKernelResponseBytes(t *testing.T) {
	for _, sc := range identityScenarios {
		sc.req.Schedule = ScheduleKeyed
		want := runResponseBytes(t, sc.req, false)
		if sc.sharded {
			var resp RunResponse
			if err := json.Unmarshal(want, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Paths.Sharded == 0 {
				t.Errorf("%s: no sharded rounds (paths %+v)", sc.name, resp.Paths)
			}
		}
		for _, perAgent := range []bool{false, true} {
			for _, shards := range []int{1, 2, 8} {
				r := sc.req
				r.Shards = shards
				if got := runResponseBytes(t, r, perAgent); !bytes.Equal(got, want) {
					t.Errorf("%s per-agent=%v shards=%d: response bytes diverged\n got: %s\nwant: %s",
						sc.name, perAgent, shards, got, want)
				}
			}
		}
	}
}

// TestQuietSpanResponseBytes: the full §3 schedules, whose dilation gaps
// are quiet spans, serialize to the same canonical response bytes on 1, 2
// and 8 workers, with and without crash faults. (The matrix above caps
// the async scenarios at 400 rounds and runs them crash-free.)
func TestQuietSpanResponseBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full async schedules")
	}
	for _, proto := range []string{ProtoAsyncSelfSync, ProtoAsyncOffsets} {
		for _, crash := range []float64{0, 0.1} {
			req := RunRequest{Protocol: proto, N: 4096, Seed: 23, Schedule: ScheduleKeyed, CrashProb: crash}
			var ref []byte
			for _, shards := range []int{1, 2, 8} {
				req.Shards = shards
				raw := runResponseBytes(t, req, false)
				if ref == nil {
					ref = raw
				} else if !bytes.Equal(ref, raw) {
					t.Errorf("%s crash=%.1f shards=%d: response bytes diverged:\n%s\n%s", proto, crash, shards, ref, raw)
				}
			}
			var resp RunResponse
			if err := json.Unmarshal(ref, &resp); err != nil {
				t.Fatal(err)
			}
			if proto == ProtoAsyncSelfSync && resp.Paths.Quiet == 0 {
				t.Errorf("%s crash=%.1f: no quiet rounds — the suite lost its point: %+v", proto, crash, resp.Paths)
			}
		}
	}
}

// TestKeyedCrashPlanFromKey: builds draw the crash plan from the run
// key's crash stream — deterministic across Builds and equal to the
// keyed sampler's plan for the request's seed.
func TestKeyedCrashPlanFromKey(t *testing.T) {
	keyed := RunRequest{N: 4096, Seed: 5, CrashProb: 0.1, Schedule: ScheduleKeyed}
	r1, err := keyed.Build()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := keyed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Crashed == 0 || r1.Crashed != r2.Crashed {
		t.Errorf("keyed crash sets differ or empty: %d vs %d", r1.Crashed, r2.Crashed)
	}
	want := sim.NewRandomCrashes(4096, 0.1, 0, rng.NewKey(5), 0)
	plan := r1.Config.Failures
	if plan == nil || plan.NumCrashed() != want.NumCrashed() {
		t.Fatalf("built plan with %d crashed, want the keyed sampler's %d", r1.Crashed, want.NumCrashed())
	}
	for a := 0; a < 4096; a++ {
		if plan.Crashed(a, 0) != want.Crashed(a, 0) {
			t.Fatalf("agent %d: built plan and keyed sampler disagree", a)
		}
	}
}
