// The tentpole invariant of the telemetry subsystem, pinned end to end:
// canonical response bytes are identical with telemetry enabled vs
// disabled, for every scenario class, collection mechanism and worker
// count. The probe times
// phases and streams a trace, but it draws nothing and steers nothing —
// so the exact bytes the service cache stores must come out either way.
package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
	"breathe/internal/telemetry"
)

// probedResponseBytes builds and executes one request with a run probe and
// full NDJSON trace armed, returning the canonical response bytes (and the
// trace, which must be non-empty — a probe that observed nothing would
// make this test vacuous).
func probedResponseBytes(t *testing.T, req RunRequest, perAgent bool) ([]byte, []byte) {
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
	return raw, trace.Bytes()
}

// TestTelemetryByteIdentityMatrix: every identity scenario class ×
// {per-agent, batched, sharded} under the keyed schedule — telemetry on
// and off must serialize to byte-identical canonical RunResponse JSON.
func TestTelemetryByteIdentityMatrix(t *testing.T) {
	kernels := []struct {
		name     string
		perAgent bool
		shards   int
	}{
		{"per-agent", true, 1},
		{"batched", false, 1},
		{"sharded", false, 8},
	}
	for _, sc := range identityScenarios {
		sc.req.Schedule = ScheduleKeyed
		for _, k := range kernels {
			r := sc.req
			r.Shards = k.shards
			want := runResponseBytes(t, r, k.perAgent)
			got, trace := probedResponseBytes(t, r, k.perAgent)
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
