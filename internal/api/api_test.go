package api

import (
	"encoding/json"
	"reflect"
	"testing"

	"breathe/internal/sim"
)

// TestHashCanonicalization: the hash must identify the run, not the
// request's wire form — defaults elided or spelled out, perf knobs on or
// off, same hash.
func TestHashCanonicalization(t *testing.T) {
	base := RunRequest{N: 1024, Seed: 7}
	spelled := RunRequest{
		Protocol: "Broadcast", // case-insensitive
		N:        1024,
		Eps:      0.3, // the default, spelled out
		Seed:     7,
		Kernel:   "auto",
	}
	perf := RunRequest{N: 1024, Seed: 7, Shards: 8, TrajectoryEvery: 4}

	h := base.Hash()
	if spelled.Hash() != h {
		t.Errorf("spelled-out defaults changed the hash: %s vs %s", spelled.Hash(), h)
	}
	if perf.Hash() != h {
		t.Errorf("perf knobs changed the hash: %s vs %s", perf.Hash(), h)
	}
	if got := (RunRequest{N: 1024, Seed: 8}).Hash(); got == h {
		t.Errorf("different seed, same hash %s", h)
	}
	if got := (RunRequest{N: 1024, Seed: 7, Kernel: "per-agent"}).Hash(); got != h {
		t.Errorf("kernel is a perf knob but changed the hash: %s vs %s", got, h)
	}
	if got := (RunRequest{N: 1024, Seed: 7, NoSelfMessages: true}).Hash(); got == h {
		t.Errorf("self-message convention did not change the hash")
	}
	// Unset MaxRounds and an explicit engine default describe the same
	// run and must share a hash.
	if got := (RunRequest{N: 1024, Seed: 7, MaxRounds: sim.DefaultMaxRounds}).Hash(); got != h {
		t.Errorf("explicit default max_rounds changed the hash: %s vs %s", got, h)
	}
	// An explicit balanced initial set (abias 0) is a different run than
	// the 0.2-biased one — Normalize must not conflate them.
	balanced := RunRequest{Protocol: "consensus", N: 1024, Seed: 7}
	biased := RunRequest{Protocol: "consensus", N: 1024, Seed: 7, ABias: 0.2}
	if balanced.Hash() == biased.Hash() {
		t.Error("abias 0 (balanced) hashed like abias 0.2")
	}
}

// TestValidateRejectsBatchedBeyondCap: kernel=batched past the packed
// counter limit must be rejected at admission, not panic in a worker.
func TestValidateRejectsBatchedBeyondCap(t *testing.T) {
	r := RunRequest{N: 1 << 28, Seed: 1, Kernel: "batched"}
	r.Normalize()
	if err := r.Validate(); err == nil {
		t.Error("kernel=batched with n = 2^28 accepted")
	}
	auto := RunRequest{N: 1 << 28, Seed: 1}
	auto.Normalize()
	if err := auto.Validate(); err != nil {
		t.Errorf("kernel=auto with n = 2^28 rejected: %v (it falls back per-agent)", err)
	}
}

// TestHashIgnoresJSONFieldOrder: two wire forms of the same run decode to
// the same hash.
func TestHashIgnoresJSONFieldOrder(t *testing.T) {
	a := []byte(`{"n": 4096, "seed": 3, "protocol": "consensus", "abias": 0.2, "eps": 0.3}`)
	b := []byte(`{"abias": 0.2, "protocol": "consensus", "seed": 3, "n": 4096, "eps": 0.3}`)
	c := []byte(`{"protocol": "consensus", "seed": 3, "abias": 0.2, "n": 4096}`) // eps defaulted
	var ra, rb, rc RunRequest
	for _, pair := range []struct {
		raw []byte
		req *RunRequest
	}{{a, &ra}, {b, &rb}, {c, &rc}} {
		if err := json.Unmarshal(pair.raw, pair.req); err != nil {
			t.Fatal(err)
		}
	}
	if ra.Hash() != rb.Hash() || ra.Hash() != rc.Hash() {
		t.Errorf("wire-form variations changed the hash: %s %s %s", ra.Hash(), rb.Hash(), rc.Hash())
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []RunRequest{
		{N: 1},
		{N: 100, Eps: 0.6},
		{N: 100, Eps: -0.1},
		{N: 100, Protocol: "gossip"},
		{N: 100, Kernel: "dense"},
		{N: 100, DropProb: 1},
		{N: 100, CrashProb: -0.5},
		{N: 100, MaxRounds: -1},
		{N: 100, Protocol: "consensus", ABias: 0.7},
		{N: 100, Shards: -2},
	}
	for _, r := range bad {
		r.Normalize()
		if err := r.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", r)
		}
	}
	good := RunRequest{N: 100}
	good.Normalize()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected the minimal request: %v", err)
	}
}

// TestCanonicalStripsPerfKnobs: the canonical request (embedded in every
// response) must be identical across requests sharing a hash, or cached
// responses would not be byte-identical.
func TestCanonicalStripsPerfKnobs(t *testing.T) {
	a := RunRequest{N: 2048, Seed: 1, Shards: 16, TrajectoryEvery: 10}
	b := RunRequest{N: 2048, Seed: 1}
	ca, cb := a.Canonical(), b.Canonical()
	if !reflect.DeepEqual(ca, cb) {
		t.Errorf("canonical forms differ:\n%+v\n%+v", ca, cb)
	}
}

// TestBuildAndRun compiles requests for every protocol and executes small
// instances end to end.
func TestBuildAndRun(t *testing.T) {
	for _, proto := range []string{ProtoBroadcast, ProtoConsensus, ProtoAsyncOffsets, ProtoAsyncSelfSync} {
		req := RunRequest{Protocol: proto, N: 512, Seed: 2}
		run, err := req.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", proto, err)
		}
		if run.ScheduleRounds <= 0 {
			t.Errorf("%s: ScheduleRounds = %d", proto, run.ScheduleRounds)
		}
		p := run.NewProtocol()
		res, err := sim.Run(run.Config, p)
		if err != nil {
			t.Fatalf("%s: Run: %v", proto, err)
		}
		if res.Rounds <= 0 {
			t.Errorf("%s: executed %d rounds", proto, res.Rounds)
		}
		resp := NewResponse(req, res, run.Crashed, p)
		if resp.Hash != req.Hash() {
			t.Errorf("%s: response hash mismatch", proto)
		}
		if wantBias := proto == ProtoBroadcast || proto == ProtoConsensus; (resp.Stage1Bias != nil) != wantBias {
			t.Errorf("%s: Stage1Bias present = %v, want %v", proto, resp.Stage1Bias != nil, wantBias)
		}
		if resp.Paths.Total() != int64(res.Rounds) {
			t.Errorf("%s: path counts sum to %d, rounds %d", proto, resp.Paths.Total(), res.Rounds)
		}
	}
}

// TestBuildCrashPlanDeterministic: the crash plan derives from the request
// alone, so two Builds agree on the crash set size.
func TestBuildCrashPlanDeterministic(t *testing.T) {
	req := RunRequest{N: 4096, Seed: 5, CrashProb: 0.1}
	r1, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Crashed == 0 || r1.Crashed != r2.Crashed {
		t.Errorf("crash sets differ or empty: %d vs %d", r1.Crashed, r2.Crashed)
	}
}

// TestProtocolFactoryFresh: NewProtocol must hand out distinct instances —
// engines are pooled, protocol state must not be.
func TestProtocolFactoryFresh(t *testing.T) {
	run, err := RunRequest{N: 256, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if run.NewProtocol() == run.NewProtocol() {
		t.Error("NewProtocol returned the same instance twice")
	}
}

// TestResponseJSONRoundTrip: the response must survive the wire.
func TestResponseJSONRoundTrip(t *testing.T) {
	req := RunRequest{N: 512, Seed: 2}
	run, err := req.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := run.NewProtocol()
	res, err := sim.Run(run.Config, p)
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(req, res, run.Crashed, p)
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, back) {
		t.Errorf("round trip changed the response:\n%+v\n%+v", resp, back)
	}
}
