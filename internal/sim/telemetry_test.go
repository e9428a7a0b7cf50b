// Engine-level byte-inertness of the run probe: arming Config.Telemetry
// must change nothing about a run — not the Result, not a single final
// opinion — on any schedule or kernel, and the probe's own accounting must
// agree with the engine's path counters. The api-level matrix
// (internal/api) extends this to canonical response bytes across the six
// scenario classes; here the probe's bookkeeping itself is under test.
package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
	"breathe/internal/telemetry"
)

// probeFingerprint runs cfg with an optional probe and returns the Result
// plus the opinion fingerprint.
func probeFingerprint(t *testing.T, cfg sim.Config, probe *telemetry.RunProbe, factory func() sim.Protocol) (sim.Result, uint64) {
	t.Helper()
	cfg.Telemetry = probe
	return keyedFingerprint(t, cfg, factory, false)
}

// TestTelemetryInert: probe on vs off, identical Result and opinions,
// with bulk and per-agent collection, serial and sharded tree rounds, and
// a crash-thinned broadcast whose Stage II runs on the sparse walker.
func TestTelemetryInert(t *testing.T) {
	broadcast := func(n int) (func() sim.Protocol, core.Params) {
		params := core.DefaultParams(n, 0.3)
		return func() sim.Protocol {
			p, err := core.NewBroadcast(params, channel.One)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, params
	}
	const n = 4096
	factory, params := broadcast(n)
	base := sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 99,
		AllowSelfMessages: true,
		MaxRounds:         params.StageIRounds() + 40,
	}
	perAgent := func() sim.Protocol { return simtest.PerAgent(factory()) }
	// A tree round needs m ≥ 256 and a sparse one k·16 < n, so n = 4096
	// never reaches the walker; 95% crashes at n = 2¹⁷ keep the listed
	// senders below n/16 through Stage II.
	const nThin = 1 << 17
	thinFactory, _ := broadcast(nThin)
	thin := sim.Config{
		N: nThin, Channel: channel.FromEpsilon(0.3), Seed: 99,
		AllowSelfMessages: true,
		Failures:          sim.NewRandomCrashes(nThin, 0.95, 0, rng.NewKey(99), 0),
	}
	cases := []struct {
		name    string
		factory func() sim.Protocol
		cfg     sim.Config
		shards  int
	}{
		{"keyed-per-agent", perAgent, base, 1},
		{"keyed-batched", factory, base, 1},
		{"keyed-sharded", factory, base, 4},
		{"keyed-sparse-crash", thinFactory, thin, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards = tc.shards
			plainRes, plainFP := probeFingerprint(t, cfg, nil, tc.factory)

			probe := telemetry.NewRunProbe()
			var trace bytes.Buffer
			probe.SetTrace(telemetry.NewTraceWriter(&trace, 1, 0))
			probedRes, probedFP := probeFingerprint(t, cfg, probe, tc.factory)

			if plainRes != probedRes {
				t.Fatalf("probe changed the Result:\noff: %+v\non:  %+v", plainRes, probedRes)
			}
			if plainFP != probedFP {
				t.Fatal("probe changed final opinions")
			}
			// The probe must have seen every executed round, attributed to
			// the same paths the engine booked.
			paths := probedRes.Paths
			if tc.cfg.Failures != nil && paths.Sparse == 0 {
				t.Errorf("crash-thinned run took no sparse round: %v", paths)
			}
			checkProbeAttribution(t, probe, trace.Bytes(), probedRes)
		})
	}
}

// checkProbeAttribution asserts that the probe saw every round of res and
// credited each regime — quiet included — with exactly the rounds the
// engine's path counters give it, and that the trace is NDJSON ending in
// a run record that says the same.
func checkProbeAttribution(t *testing.T, probe *telemetry.RunProbe, trace []byte, res sim.Result) {
	t.Helper()
	paths := res.Paths
	want := [telemetry.NumRegimes]int64{
		telemetry.RegimeQuiet:      paths.Quiet,
		telemetry.RegimePerMessage: paths.PerMessage,
		telemetry.RegimeDense:      paths.Dense,
		telemetry.RegimeSharded:    paths.Sharded,
		telemetry.RegimeSparse:     paths.Sparse,
	}
	if rr := probe.RegimeRounds(); rr != want {
		t.Errorf("probe regime rounds %v, engine %v", rr, want)
	}
	if got := probe.Rounds(); got != int64(res.Rounds) {
		t.Errorf("round count: probe %d, engine %d", got, res.Rounds)
	}
	var runRec struct {
		Rounds  int              `json:"rounds"`
		Regimes map[string]int64 `json:"regime_rounds"`
	}
	lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &runRec); err != nil {
		t.Fatal(err)
	}
	if runRec.Rounds != res.Rounds {
		t.Errorf("run record rounds %d, Result %d", runRec.Rounds, res.Rounds)
	}
	for i, name := range telemetry.RegimeNames() {
		if runRec.Regimes[name] != want[i] {
			t.Errorf("run record %s rounds %d, engine %d", name, runRec.Regimes[name], want[i])
		}
	}
}

// TestTelemetryQuietSpans: a self-sync run, whose dilation gaps are
// quiet spans, stays inert under the probe, and the probe and the trace
// credit every quiet round — one round record each — to the quiet regime.
func TestTelemetryQuietSpans(t *testing.T) {
	cfg, factory := selfSyncFactory(t, 4096)
	plainRes, plainFP := probeFingerprint(t, cfg, nil, factory)

	probe := telemetry.NewRunProbe()
	var trace bytes.Buffer
	probe.SetTrace(telemetry.NewTraceWriter(&trace, 1, 0))
	probedRes, probedFP := probeFingerprint(t, cfg, probe, factory)
	if plainRes != probedRes || plainFP != probedFP {
		t.Fatal("probe changed a self-sync run")
	}
	if probedRes.Paths.Quiet == 0 {
		t.Fatalf("self-sync run had no quiet rounds — scenario lost its point: %+v", probedRes.Paths)
	}
	checkProbeAttribution(t, probe, trace.Bytes(), probedRes)
	if got := int64(bytes.Count(trace.Bytes(), []byte(`"regime":"quiet"`))); got != probedRes.Paths.Quiet {
		t.Errorf("trace has %d quiet round records, the run %d quiet rounds", got, probedRes.Paths.Quiet)
	}
}

// TestTelemetryPooledEngine: SetTelemetry follows the engine's re-arming
// rules — panics on a started engine, detaches with nil, and a Reset
// probe can serve consecutive tenants.
func TestTelemetryPooledEngine(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	cfg := sim.Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 1,
		AllowSelfMessages: true, MaxRounds: 40,
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := telemetry.NewRunProbe()
	e.SetTelemetry(probe)
	p, err := core.NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p)
	if probe.Rounds() == 0 {
		t.Fatal("probe saw no rounds")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetTelemetry on a started engine did not panic")
			}
		}()
		e.SetTelemetry(nil)
	}()
	// Second tenant: fresh probe state, detached trace.
	first := probe.Rounds()
	next := cfg
	next.Seed = 2
	if err := e.Reset(next); err != nil {
		t.Fatal(err)
	}
	probe.Reset()
	e.SetTelemetry(probe)
	p2, err := core.NewBroadcast(params, channel.One)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(p2)
	if probe.Rounds() == 0 || probe.Rounds() > first+int64(cfg.MaxRounds) {
		t.Errorf("re-armed probe rounds = %d (first run %d)", probe.Rounds(), first)
	}
}
