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
// sampler-2 address: its preimage ends in "sampler=2".
func TestOmittedScheduleHashPinned(t *testing.T) {
	const want = "2c401dd0ffcf3eb60ef8a9125119f462f13093c93629eb3ad7e11cf7fd08b3cc"
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
// broadcast's sampler-2 address: the preimage it had before the kernel
// field lost its second value, plus a "sampler=2" line.
func TestKernelFieldHashPinned(t *testing.T) {
	const want = "41ad61efc5ac7ecfc7328ff48374298e443dea7a327e1fad33fee2a26b537ef1"
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
// needs many rounds of every regime, not the whole schedule.
var identityScenarios = []struct {
	name string
	req  RunRequest
}{
	// Large enough that dense rounds run sharded (49152 ≥ shardMinN).
	{"broadcast-sharded", RunRequest{Protocol: ProtoBroadcast, N: 49152, Seed: 11, MaxRounds: 220}},
	{"consensus", RunRequest{Protocol: ProtoConsensus, N: 8192, Seed: 12, ABias: 0.2}},
	{"async-offsets", RunRequest{Protocol: ProtoAsyncOffsets, N: 8192, Seed: 13, MaxRounds: 400}},
	{"async-selfsync", RunRequest{Protocol: ProtoAsyncSelfSync, N: 8192, Seed: 14, MaxRounds: 400}},
	{"crash-plan", RunRequest{Protocol: ProtoBroadcast, N: 8192, Seed: 15, CrashProb: 0.1}},
	{"drop-no-self", RunRequest{Protocol: ProtoBroadcast, N: 4096, Seed: 16, NoSelfMessages: true, DropProb: 0.05}},
	{"broadcast-no-breathe", RunRequest{Protocol: ProtoBroadcastNoBreathe, N: 4096, Seed: 17}},
	{"immediate-forward", RunRequest{Protocol: ProtoImmediateForward, N: 4096, Seed: 18, MaxRounds: 300}},
	{"voter", RunRequest{Protocol: ProtoVoter, N: 4096, Seed: 19, MaxRounds: 300, DropProb: 0.05}},
	{"two-choice-no-self", RunRequest{Protocol: ProtoTwoChoice, N: 4096, Seed: 20, MaxRounds: 300, NoSelfMessages: true}},
	{"silent-wait-crash", RunRequest{Protocol: ProtoSilentWait, N: 4096, Seed: 21, CrashProb: 0.1}},
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
