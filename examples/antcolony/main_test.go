package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the example and checks what it prints: every expedition
// took rounds and the whole colony chose nest A.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := regexp.MustCompile(`(?m)^  expedition \d+:\s+(\d+) rounds, .* — (.*)$`).FindAllSubmatch(out.Bytes(), -1)
	if len(lines) != 5 {
		t.Fatalf("%d expedition lines, want 5:\n%s", len(lines), out.Bytes())
	}
	for _, m := range lines {
		if r, _ := strconv.Atoi(string(m[1])); r <= 0 {
			t.Errorf("%s: no rounds", m[0])
		}
		if string(m[2]) != "chose nest A" {
			t.Errorf("%s: not unanimous for nest A", m[0])
		}
	}
}
