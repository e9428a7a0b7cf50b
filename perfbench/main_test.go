package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// exactCounts are the per-layer metrics that must repeat exactly across
// invocations with the same seed.
var exactCounts = []string{
	"sim.rounds", "sim.msgs_sent", "sim.msgs_accepted", "sim.msgs_dropped",
	"sim.rounds.per_agent", "sim.rounds.quiet", "sim.rounds.per_message",
	"sim.rounds.dense", "sim.rounds.sharded", "sim.rounds.sparse",
	"sim.quiet_spans", "service.executed",
}

// toyScale runs every workload in a few seconds. The populations are large
// enough that every crash-free run of the test seed is unanimous.
var toyScale = scale{
	bcastN:      1 << 12,
	serveNs:     []int{256, 512},
	serveRate:   100,
	sweepN:      1 << 10,
	sweepSeeds:  2,
	sparseN:     1 << 14,
	sparseSeeds: 2,
	setups:      2,
}

func runToy(t *testing.T, name string, trace bool) (*outcome, resultLine) {
	t.Helper()
	c := &config{seed: 7, seconds: time.Second, trace: trace, scale: toyScale}
	if trace {
		c.tr = newTracer()
	}
	o, err := workloads[name](c)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", name, trace, err)
	}
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	line, err := report(o, trace)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", name, trace, err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s (trace %t): correct %t, attempted %d, failed %d", name, trace, line.Correct, line.Attempted, line.Failed)
	}
	return o, line
}

// TestWorkloadsAtToyScale checks, for every workload, that each metric of
// both tables is emitted with its unit, that no end-to-end metric reads 0,
// that the exact counts repeat across two traced invocations with the same
// seed, and that the traced and untraced digests agree.
func TestWorkloadsAtToyScale(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			plain, line := runToy(t, name, false)
			for _, d := range endToEnd {
				mv, ok := line.Metrics[d.name]
				if !ok || mv.Unit != d.unit || mv.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %t), want unit %s and a value > 0", d.name, mv, ok, d.unit)
				}
			}
			a, la := runToy(t, name, true)
			b, lb := runToy(t, name, true)
			for _, d := range perLayer {
				if mv, ok := la.Metrics[d.name]; !ok || mv.Unit != d.unit {
					t.Errorf("per-layer %s: got %+v (present %t), want unit %s", d.name, mv, ok, d.unit)
				}
			}
			for _, k := range exactCounts {
				if la.Metrics[k].Value != lb.Metrics[k].Value {
					t.Errorf("%s differs between invocations: %v vs %v", k, la.Metrics[k].Value, lb.Metrics[k].Value)
				}
			}
			if la.Metrics["sim.rounds"].Value == 0 {
				t.Errorf("sim.rounds is 0 in the traced run")
			}
			if plain.digest == "" || a.digest != plain.digest || b.digest != plain.digest {
				t.Errorf("digests differ: untraced %q, traced %q and %q", plain.digest, a.digest, b.digest)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// metric tables and workloads of this command.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the command", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
