package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestRun runs the example and checks what it prints: a unanimous
// broadcast that took rounds.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^rounds:\s+(\d+)$`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no rounds line in:\n%s", out.Bytes())
	}
	if r, _ := strconv.Atoi(string(m[1])); r <= 0 {
		t.Errorf("rounds = %d", r)
	}
	if !regexp.MustCompile(`(?m)^unanimous:\s+true$`).Match(out.Bytes()) {
		t.Errorf("not unanimous:\n%s", out.Bytes())
	}
}
