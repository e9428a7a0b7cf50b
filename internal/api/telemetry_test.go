// The tentpole invariant of the telemetry subsystem, pinned end to end:
// canonical response bytes are identical with telemetry enabled vs
// disabled, for every scenario class and every kernel. The probe times
// phases and streams a trace, but it draws nothing and steers nothing —
// so the exact bytes the service cache stores must come out either way.
package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"breathe/internal/sim"
	"breathe/internal/telemetry"
)

// probedResponseBytes builds and executes one request with a run probe and
// full NDJSON trace armed, returning the canonical response bytes (and the
// trace, which must be non-empty — a probe that observed nothing would
// make this test vacuous).
func probedResponseBytes(t *testing.T, req RunRequest) ([]byte, []byte) {
	t.Helper()
	run, err := req.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", req, err)
	}
	probe := telemetry.NewRunProbe()
	var trace bytes.Buffer
	probe.SetTrace(telemetry.NewTraceWriter(&trace, 1, 0))
	run.Config.Telemetry = probe
	p := run.NewProtocol()
	res, err := sim.Run(run.Config, p)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	raw, err := json.Marshal(NewResponse(req, res, run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw, trace.Bytes()
}

// telemetryScenarios are the six scenario classes of the keyed identity
// matrix (mirroring TestKeyedCrossKernelResponseBytes).
var telemetryScenarios = []struct {
	name string
	req  RunRequest
}{
	{"broadcast-sharded", RunRequest{Protocol: ProtoBroadcast, N: 49152, Seed: 11, MaxRounds: 220}},
	{"consensus", RunRequest{Protocol: ProtoConsensus, N: 8192, Seed: 12, ABias: 0.2}},
	{"async-offsets", RunRequest{Protocol: ProtoAsyncOffsets, N: 8192, Seed: 13, MaxRounds: 400}},
	{"async-selfsync", RunRequest{Protocol: ProtoAsyncSelfSync, N: 8192, Seed: 14, MaxRounds: 400}},
	{"crash-plan", RunRequest{Protocol: ProtoBroadcast, N: 8192, Seed: 15, CrashProb: 0.1}},
	{"drop-no-self", RunRequest{Protocol: ProtoBroadcast, N: 4096, Seed: 16, NoSelfMessages: true, DropProb: 0.05}},
}

// TestTelemetryByteIdentityMatrix: all six scenario classes × {per-agent,
// batched, sharded} under the keyed schedule — telemetry on and off must
// serialize to byte-identical canonical RunResponse JSON.
func TestTelemetryByteIdentityMatrix(t *testing.T) {
	kernels := []struct {
		name   string
		kernel string
		shards int
	}{
		{"per-agent", KernelPerAgent, 1},
		{"batched", KernelAuto, 1},
		{"sharded", KernelAuto, 8},
	}
	for _, sc := range telemetryScenarios {
		sc.req.Schedule = ScheduleKeyed
		for _, k := range kernels {
			r := sc.req
			r.Kernel = k.kernel
			r.Shards = k.shards
			want := runResponseBytes(t, r)
			got, trace := probedResponseBytes(t, r)
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: telemetry changed the response bytes\n got: %s\nwant: %s",
					sc.name, k.name, got, want)
			}
			if len(trace) == 0 {
				t.Errorf("%s/%s: probe produced no trace — the identity check observed nothing", sc.name, k.name)
			}
		}
	}
}

// TestTraceEveryIsPerfKnob: trace_every joins shards and trajectory_every
// as a pure performance knob — excluded from the hash and erased from the
// canonical request, so traced and untraced requests share cache entries.
func TestTraceEveryIsPerfKnob(t *testing.T) {
	plain := RunRequest{N: 2048, Seed: 1}
	traced := RunRequest{N: 2048, Seed: 1, TraceEvery: 5}
	if plain.Hash() != traced.Hash() {
		t.Error("trace_every entered the hash")
	}
	if !reflect.DeepEqual(plain.Canonical(), traced.Canonical()) {
		t.Error("trace_every survives canonicalization")
	}
	neg := RunRequest{N: 2048, Seed: 1, TraceEvery: -1}
	neg.Normalize()
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted negative trace_every")
	}
}
