package api

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"breathe/internal/sim"
	"breathe/internal/telemetry"
)

// A knob class says how a RunRequest field reaches a run's address.
type knobClass int

const (
	// hashed: two values give two content addresses.
	hashed knobClass = iota
	// inert: two values give one address, one canonical request and
	// byte-identical response bytes.
	inert
	// singleValued: the field has one legal value; any other is refused
	// by Validate.
	singleValued
)

// knobRow classes one RunRequest field. set gives the field a second
// value on top of base (for a singleValued field, an illegal one). A
// hashed field that counts only under some condition names, in moot, a
// change to base under which it drops out of the hash.
type knobRow struct {
	class knobClass
	base  RunRequest
	set   func(*RunRequest)
	moot  func(*RunRequest)
}

// censusBase is every row's request unless the row names its own: a
// noiseless broadcast at the engine's shard minimum (n = 2¹⁵), stopped
// while Stage II is under way. Its last rounds run sharded, so the shards
// row compares worker counts where they matter.
var censusBase = RunRequest{N: 1 << 15, Eps: 0.5, Seed: 11, MaxRounds: 300}

// requestKnobs is the knob census of RunRequest: every field, in exactly
// one class. A field added without a row fails TestKnobCensus by name.
var requestKnobs = map[string]knobRow{
	"Protocol":       {class: hashed, set: func(r *RunRequest) { r.Protocol = ProtoConsensus }},
	"N":              {class: hashed, set: func(r *RunRequest) { r.N++ }},
	"Eps":            {class: hashed, set: func(r *RunRequest) { r.Eps = 0.25 }},
	"Seed":           {class: hashed, set: func(r *RunRequest) { r.Seed++ }},
	"MaxRounds":      {class: hashed, set: func(r *RunRequest) { r.MaxRounds++ }},
	"NoSelfMessages": {class: hashed, set: func(r *RunRequest) { r.NoSelfMessages = true }},
	"DropProb":       {class: hashed, set: func(r *RunRequest) { r.DropProb = 0.05 }},
	// abias counts only for consensus: Normalize zeroes it for every
	// other protocol.
	"ABias": {class: hashed,
		base: RunRequest{Protocol: ProtoConsensus, N: 4096, Seed: 1},
		set:  func(r *RunRequest) { r.ABias = 0.2 },
		moot: func(r *RunRequest) { r.Protocol = ProtoBroadcast }},
	"CrashProb": {class: hashed, set: func(r *RunRequest) { r.CrashProb = 0.1 }},
	// crash_round counts only when crash_prob > 0: without crashes
	// Normalize zeroes it.
	"CrashRound": {class: hashed,
		base: RunRequest{N: 4096, Seed: 1, CrashProb: 0.1},
		set:  func(r *RunRequest) { r.CrashRound = 5 },
		moot: func(r *RunRequest) { r.CrashProb = 0 }},
	"Kernel":          {class: singleValued, set: func(r *RunRequest) { r.Kernel = "batched" }},
	"Schedule":        {class: singleValued, set: func(r *RunRequest) { r.Schedule = "counter" }},
	"Shards":          {class: inert, set: func(r *RunRequest) { r.Shards = 3 }},
	"TrajectoryEvery": {class: inert, set: func(r *RunRequest) { r.TrajectoryEvery = 7 }},
	"TraceEvery":      {class: inert, set: func(r *RunRequest) { r.TraceEvery = 5 }},
}

// TestKnobCensus holds every RunRequest field to its class: a hashed
// field moves the address (and drops out of it only where its row says
// so), an inert one moves neither the address, the canonical request nor
// the response bytes, and a single-valued one refuses every other value.
func TestKnobCensus(t *testing.T) {
	fields := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[RunRequest]()) {
		fields[f.Name] = true
		row, ok := requestKnobs[f.Name]
		if !ok {
			t.Errorf("RunRequest.%s has no row in the knob census: class it hashed, inert or single-valued", f.Name)
			continue
		}
		base := row.base
		if base.N == 0 {
			base = censusBase
		}
		alt := base
		row.set(&alt)
		switch row.class {
		case hashed:
			if base.Hash() == alt.Hash() {
				t.Errorf("hashed field %s: two values share the address %s", f.Name, base.Hash())
			}
			if row.moot != nil {
				row.moot(&base)
				row.moot(&alt)
				if base.Hash() != alt.Hash() {
					t.Errorf("hashed field %s: still counts where its row says it drops out", f.Name)
				}
			}
		case inert:
			if base.Hash() != alt.Hash() {
				t.Errorf("inert field %s changed the address", f.Name)
			}
			if !reflect.DeepEqual(base.Canonical(), alt.Canonical()) {
				t.Errorf("inert field %s survives canonicalization", f.Name)
			}
			want, wantRes := hookedResponseBytes(t, base)
			got, _ := hookedResponseBytes(t, alt)
			if !bytes.Equal(got, want) {
				t.Errorf("inert field %s changed the response bytes:\n got: %s\nwant: %s", f.Name, got, want)
			}
			if f.Name == "Shards" && wantRes.Paths.Sharded == 0 {
				t.Errorf("the shards row ran no sharded round: %+v", wantRes.Paths)
			}
		case singleValued:
			base.Normalize()
			if err := base.Validate(); err != nil {
				t.Errorf("single-valued field %s: its one value is refused: %v", f.Name, err)
			}
			alt.Normalize()
			if err := alt.Validate(); err == nil {
				t.Errorf("single-valued field %s accepted a second value", f.Name)
			}
		}
	}
	for name := range requestKnobs { //breathe:order-ok membership checks only
		if !fields[name] {
			t.Errorf("the knob census has a row for %s, which RunRequest no longer has", name)
		}
	}
}

// hookedResponseBytes runs req the way the service does, with a trace
// probe when it asks for trace_every and a trajectory observer reading
// every opinion when it asks for trajectory_every, and returns the
// response bytes and the result.
func hookedResponseBytes(t *testing.T, req RunRequest) ([]byte, sim.Result) {
	t.Helper()
	run, err := req.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", req, err)
	}
	cfg := run.Config
	p := run.NewProtocol()
	if every := req.TraceEvery; every > 0 {
		probe := telemetry.NewRunProbe()
		probe.SetTrace(telemetry.NewTraceWriter(io.Discard, every, 0))
		cfg.Telemetry = probe
	}
	if every := req.TrajectoryEvery; every > 0 {
		cfg.Observer = func(round int, e *sim.Engine) {
			if round%every == 0 {
				for a := range e.N() {
					p.Opinion(a)
				}
			}
		}
	}
	res, err := sim.Run(cfg, p)
	if err != nil {
		t.Fatalf("Run(%+v): %v", req, err)
	}
	raw, err := json.Marshal(NewResponse(req, res, run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw, res
}

// engineHooks are the sim.Config fields engineConfig leaves unset: the
// executor's hooks, none of which draws from any stream or steers a
// round. Every other field must be one engineConfig sets.
var engineHooks = map[string]bool{"Observer": true, "Cancel": true, "Telemetry": true}

// TestEngineConfigCensus holds every sim.Config field to one of two
// classes: set by engineConfig from the request, or a hook that draws
// nothing. A field added to sim.Config in neither fails by name.
func TestEngineConfigCensus(t *testing.T) {
	// Every field engineConfig sets holds a nonzero value here.
	req := RunRequest{N: 512, Seed: 3, DropProb: 0.05, CrashProb: 0.1, Shards: 2}
	cfg, err := req.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(cfg)
	for _, f := range reflect.VisibleFields(v.Type()) {
		set := !v.FieldByIndex(f.Index).IsZero()
		switch {
		case engineHooks[f.Name] && set:
			t.Errorf("sim.Config.%s is listed as a hook but engineConfig sets it", f.Name)
		case !engineHooks[f.Name] && !set:
			t.Errorf("sim.Config.%s is neither set by engineConfig nor a listed hook", f.Name)
		}
	}
}
