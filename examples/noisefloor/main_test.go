package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the example and checks what it prints: at every ε the
// breathe broadcast ends unanimous, and the immediate-forward strawman
// holds a smaller correct fraction.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^(0\.\d+)\s+0\.\d+\s+(\S+)\s+(\S+)\s*$`).FindAllSubmatch(out.Bytes(), -1)
	if len(rows) != 4 {
		t.Fatalf("%d table rows, want 4:\n%s", len(rows), out.Bytes())
	}
	for _, m := range rows {
		breathe, err1 := strconv.ParseFloat(string(m[2]), 64)
		forward, err2 := strconv.ParseFloat(string(m[3]), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("eps %s: bad row %q", m[1], m[0])
		}
		if breathe != 1 {
			t.Errorf("eps %s: breathe correct fraction %g, want 1", m[1], breathe)
		}
		if forward >= breathe {
			t.Errorf("eps %s: immediate-forward %g not below breathe %g", m[1], forward, breathe)
		}
	}
}
