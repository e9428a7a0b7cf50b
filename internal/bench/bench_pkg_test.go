package bench

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestAllExperimentsQuick executes every experiment in quick mode and
// requires every shape check to pass. This is the repository's
// end-to-end reproduction test.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick experiment suite takes seconds; CI runs it as a step of its own")
	}
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
		})
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
