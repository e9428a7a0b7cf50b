package api

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
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

// TestValidateRejectsBatchedBeyondCap: the retired kernel values
// "batched" and "per-agent" are rejected at every n — past the packed
// counter limit too — with an error naming auto, the one kernel, while
// auto at the limit falls back to per-agent collection instead of
// failing.
func TestValidateRejectsBatchedBeyondCap(t *testing.T) {
	for _, kernel := range []string{"batched", "per-agent"} {
		for _, n := range []int{1024, 1 << 28} {
			r := RunRequest{N: n, Seed: 1, Kernel: kernel}
			r.Normalize()
			err := r.Validate()
			if err == nil {
				t.Fatalf("kernel=%s with n = %d accepted", kernel, n)
			}
			if msg := err.Error(); !strings.Contains(msg, `"`+KernelAuto+`"`) {
				t.Errorf("kernel=%s error %q does not name %q", kernel, msg, KernelAuto)
			}
		}
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
		{N: 100, Eps: math.NaN()},
		{N: 100, Eps: math.Inf(1)},
		{N: 100, Eps: math.Inf(-1)},
		{N: 100, DropProb: math.NaN()},
		{N: 100, DropProb: math.Inf(1)},
		{N: 100, DropProb: math.Inf(-1)},
		{N: 100, Protocol: "consensus", ABias: math.NaN()},
		{N: 100, Protocol: "consensus", ABias: math.Inf(1)},
		{N: 100, Protocol: "consensus", ABias: math.Inf(-1)},
		{N: 100, CrashProb: math.NaN()},
		{N: 100, CrashProb: math.Inf(1)},
		{N: 100, CrashProb: math.Inf(-1)},
		// 1/2 − ε rounds to 1/2, and a schedule that overflows int.
		{N: 64, Eps: 1e-300},
		{N: 64, Eps: 1e-12},
		// Beyond the engine's int32 agent ids: rejected before Build
		// allocates anything O(n).
		{N: math.MaxInt32 + 1},
		{N: 1 << 33},
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
	for _, proto := range Protocols {
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
		if wantBias := proto == ProtoBroadcast || proto == ProtoConsensus || proto == ProtoBroadcastNoBreathe; (resp.Stage1Bias != nil) != wantBias {
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

// TestBuildConfigIsEngineConfig: Build runs every protocol under
// EngineConfig's configuration — reflect.DeepEqual follows the crash-plan
// pointers, so two separately built plans are compared by content — and
// Crashed is that plan's size.
func TestBuildConfigIsEngineConfig(t *testing.T) {
	for _, proto := range Protocols {
		for _, noSelf := range []bool{false, true} {
			for _, crash := range []float64{0, 0.1} {
				req := RunRequest{Protocol: proto, N: 512, Seed: 3, NoSelfMessages: noSelf, CrashProb: crash}
				run, err := req.Build()
				if err != nil {
					t.Fatalf("%+v: Build: %v", req, err)
				}
				cfg, err := req.EngineConfig()
				if err != nil {
					t.Fatalf("%+v: EngineConfig: %v", req, err)
				}
				if !reflect.DeepEqual(run.Config, cfg) {
					t.Errorf("%+v: Build's config differs from EngineConfig:\n%+v\n%+v", req, run.Config, cfg)
				}
				if run.Crashed != cfg.Failures.NumCrashed() || (run.Crashed > 0) != (crash > 0) {
					t.Errorf("%+v: Crashed = %d, plan holds %d", req, run.Crashed, cfg.Failures.NumCrashed())
				}
			}
		}
	}
	// EngineConfig normalizes (ε defaults to 0.3, the worst-case channel
	// flips 1/2 − ε) and validates.
	cfg, err := RunRequest{N: 64}.EngineConfig()
	if err != nil || cfg.Channel.FlipProb() != 0.5-0.3 || cfg.MaxRounds != sim.DefaultMaxRounds || !cfg.AllowSelfMessages {
		t.Errorf("defaults: %+v, %v", cfg, err)
	}
	if _, err := (RunRequest{N: 1}).EngineConfig(); err == nil {
		t.Error("EngineConfig accepted n = 1")
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

// quietStub is a protocol that never sends: every round of its fixed
// schedule is quiet, so the response's primary_path must say "quiet".
type quietStub struct{ total int }

func (q *quietStub) Name() string                      { return "quiet-stub" }
func (q *quietStub) Setup(int, rng.Key)                {}
func (q *quietStub) Send(int, int) (channel.Bit, bool) { return 0, false }
func (q *quietStub) Receive(int, channel.Bit, int)     {}
func (q *quietStub) EndRound(int)                      {}
func (q *quietStub) Done(g int) bool                   { return g >= q.total }
func (q *quietStub) Opinion(int) (channel.Bit, bool)   { return 0, false }

// TestResponsePrimaryPathAllQuiet pins the documented PrimaryPath
// convention at the response layer: a run in which no round carried a
// message reports primary_path "quiet" — the one case the "dominant
// non-quiet path" reading has no candidate for.
func TestResponsePrimaryPathAllQuiet(t *testing.T) {
	req := RunRequest{N: 64, Seed: 3, Schedule: ScheduleKeyed}
	req.Normalize()
	res, err := sim.Run(sim.Config{
		N: 64, Channel: channel.FromEpsilon(0.3), Seed: 3,
	}, simtest.PerAgent(&quietStub{total: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 0 || res.Paths.Quiet != 40 {
		t.Fatalf("stub sent %d messages in %+v, want 40 quiet rounds", res.MessagesSent, res.Paths)
	}
	resp := NewResponse(req, res, 0, simtest.PerAgent(&quietStub{}))
	if resp.PrimaryPath != "quiet" {
		t.Errorf("all-quiet response primary_path = %q, want \"quiet\"", resp.PrimaryPath)
	}
}
