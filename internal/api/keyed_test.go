package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"breathe/internal/rng"
	"breathe/internal/sim"
)

// TestKeyedHashErasesKernel: every kernel replays the same addressed
// draws, so the kernel selection is a pure performance knob and must not
// enter the hash, whether the request names the schedule or not.
func TestKeyedHashErasesKernel(t *testing.T) {
	base := RunRequest{N: 1024, Seed: 7, Schedule: ScheduleKeyed}
	h := base.Hash()
	for _, kernel := range []string{KernelAuto, KernelPerAgent} {
		r := RunRequest{N: 1024, Seed: 7, Schedule: ScheduleKeyed, Kernel: kernel, Shards: 8}
		if got := r.Hash(); got != h {
			t.Errorf("keyed kernel=%s changed the hash: %s vs %s", kernel, got, h)
		}
	}
	if omitted := (RunRequest{N: 1024, Seed: 7, Kernel: KernelPerAgent}).Hash(); omitted != h {
		t.Errorf("omitted schedule hashed apart from keyed: %s vs %s", omitted, h)
	}
	if spelled := (RunRequest{N: 1024, Seed: 7, Schedule: "Keyed"}).Hash(); spelled != h {
		t.Error("schedule name is not case-normalized before hashing")
	}
}

// TestKeyedCanonicalErasesKernel: the canonical request embedded in every
// keyed response names kernel auto regardless of what computed it, so a
// cached response serves any kernel's request byte-identically.
func TestKeyedCanonicalErasesKernel(t *testing.T) {
	a := RunRequest{N: 2048, Seed: 1, Schedule: ScheduleKeyed, Kernel: KernelPerAgent, Shards: 16}
	b := RunRequest{N: 2048, Seed: 1, Schedule: ScheduleKeyed, Kernel: KernelAuto}
	ca, cb := a.Canonical(), b.Canonical()
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("keyed canonical forms differ:\n%+v\n%+v", ca, cb)
	}
	if ca.Kernel != KernelAuto {
		t.Errorf("keyed canonical kernel = %q, want %q", ca.Kernel, KernelAuto)
	}
	// A request that omits the schedule canonicalizes to the same form.
	oc := RunRequest{N: 2048, Seed: 1, Kernel: KernelPerAgent}.Canonical()
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
// that omits the schedule to the address the same request had when it
// named "keyed" explicitly — the preimage still reads kernel=auto and
// schedule=keyed — so every stored cache entry, sweep checkpoint and
// benchmark digest keeps its address.
func TestOmittedScheduleHashPinned(t *testing.T) {
	const want = "5b01191998c004a86b5616976fdcd019905d6355145fbe7fff6e6fc8e9864b1c"
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

// runResponseBytes builds, executes and serializes one request.
func runResponseBytes(t *testing.T, req RunRequest) []byte {
	t.Helper()
	run, err := req.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", req, err)
	}
	p := run.NewProtocol()
	res, err := sim.Run(run.Config, p)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	raw, err := json.Marshal(NewResponse(req, res, run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestKeyedCrossKernelResponseBytes is the end-to-end acceptance suite:
// for every scenario class, every kernel × worker count must serialize to
// byte-identical canonical RunResponse JSON under the keyed schedule —
// the exact bytes the service cache stores and serves.
func TestKeyedCrossKernelResponseBytes(t *testing.T) {
	scenarios := []struct {
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
	}
	for _, sc := range scenarios {
		sc.req.Schedule = ScheduleKeyed
		ref := sc.req
		ref.Kernel = KernelAuto
		want := runResponseBytes(t, ref)
		for _, kernel := range []string{KernelAuto, KernelPerAgent} {
			for _, shards := range []int{1, 2, 8} {
				r := sc.req
				r.Kernel = kernel
				r.Shards = shards
				if got := runResponseBytes(t, r); !bytes.Equal(got, want) {
					t.Errorf("%s kernel=%s shards=%d: response bytes diverged\n got: %s\nwant: %s",
						sc.name, kernel, shards, got, want)
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
