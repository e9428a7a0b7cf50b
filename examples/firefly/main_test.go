package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the example and checks what it prints: both broadcasts
// unanimous after some rounds, and self-synchronization costing extra
// rounds, not saving them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	runs := regexp.MustCompile(`(?m)^(with a global clock|self-synchronizing):\s+(\d+) rounds, .* unanimous: (\w+)$`).FindAllSubmatch(out.Bytes(), -1)
	if len(runs) != 2 {
		t.Fatalf("%d run lines, want 2:\n%s", len(runs), out.Bytes())
	}
	for _, m := range runs {
		if r, _ := strconv.Atoi(string(m[2])); r <= 0 {
			t.Errorf("%s: no rounds", m[1])
		}
		if string(m[3]) != "true" {
			t.Errorf("%s: not unanimous", m[1])
		}
	}
	m := regexp.MustCompile(`(?m)^synchronization overhead: (-?\d+) extra rounds`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no overhead line in:\n%s", out.Bytes())
	}
	if d, _ := strconv.Atoi(string(m[1])); d <= 0 {
		t.Errorf("synchronization overhead %d rounds, want > 0", d)
	}
}
