package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateExperiments = flag.Bool("update-experiments", false, "rewrite testdata/experiments.golden")

// experimentsGolden holds the text `experiments -quick -seeds 3 -run all`
// prints: every experiment's report, in registry order.
const experimentsGolden = "../../testdata/experiments.golden"

// goldenReports splits the golden text into reports keyed by experiment
// ID; a report starts at its "== <ID>: " header line.
func goldenReports(t *testing.T) map[string]string {
	raw, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		reports[id] += line
	}
	return reports
}

// firstDiff returns the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(all))
	}
	seen := map[string]bool{}
	for i, e := range all {
		want := fmt.Sprintf("E%d", i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %q, want %q", i, e.ID, want)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.PaperRef == "" || e.Expectation == "" || e.Run == nil {
			t.Errorf("%s: incomplete definition", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if e := ByID("E5"); e == nil || e.ID != "E5" {
		t.Fatal("ByID(E5) failed")
	}
	if e := ByID("nope"); e != nil {
		t.Fatal("ByID should return nil for unknown")
	}
	if got := len(IDs()); got != 18 {
		t.Fatalf("IDs() returned %d", got)
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode,
// requires every shape check to pass and every report to equal its text
// in testdata/experiments.golden (-update-experiments rewrites the file).
// This is the repository's end-to-end reproduction test: a change that
// moves a table cell fails here by experiment ID.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick experiment suite takes seconds; CI runs it as a step of its own")
	}
	var golden map[string]string
	if !*updateExperiments {
		golden = goldenReports(t)
	}
	var all strings.Builder
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(Options{Quick: true, Seeds: 3})
			if err != nil {
				t.Fatalf("%s failed to run: %v", e.ID, err)
			}
			if len(rep.Tables) == 0 {
				t.Errorf("%s produced no tables", e.ID)
			}
			for _, tb := range rep.Tables {
				if tb.NumRows() == 0 {
					t.Errorf("%s produced an empty table %q", e.ID, tb.Title())
				}
			}
			for _, c := range rep.Checks {
				if !c.Pass {
					t.Errorf("%s check failed: %s — %s", e.ID, c.Name, c.Detail)
				}
			}
			var sb strings.Builder
			if err := WriteReport(&sb, e, rep); err != nil {
				t.Fatalf("WriteReport: %v", err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Errorf("report missing experiment ID")
			}
			all.WriteString(sb.String())
			if want, ok := golden[e.ID]; !*updateExperiments && !ok {
				t.Errorf("%s has no report in %s", e.ID, experimentsGolden)
			} else if !*updateExperiments && sb.String() != want {
				t.Errorf("%s report drifted from %s at %s", e.ID, experimentsGolden, firstDiff(sb.String(), want))
			}
		})
	}
	if *updateExperiments {
		if err := os.WriteFile(experimentsGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	if (Options{}).seeds() != 5 {
		t.Errorf("default seeds = %d", (Options{}).seeds())
	}
	if (Options{Quick: true}).seeds() != 3 {
		t.Errorf("quick seeds = %d", (Options{Quick: true}).seeds())
	}
	if (Options{Seeds: 7}).seeds() != 7 {
		t.Errorf("explicit seeds = %d", (Options{Seeds: 7}).seeds())
	}
}

func TestReportPassed(t *testing.T) {
	r := &Report{}
	if !r.Passed() {
		t.Error("empty report should pass")
	}
	r.addCheck("ok", true, "")
	if !r.Passed() {
		t.Error("all-pass report should pass")
	}
	r.addCheck("bad", false, "broken")
	if r.Passed() {
		t.Error("failing check should fail the report")
	}
}

func TestMedianHelper(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
	in := []float64{2, 1}
	_ = median(in)
	if in[0] != 2 {
		t.Error("median mutated input")
	}
}
