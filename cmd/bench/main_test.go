package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchWritesWellFormedArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_kernel.json")
	var log bytes.Buffer
	// A tiny ladder keeps the test fast while covering both worker counts;
	// -quick keeps the async quiet-span cell at CI scale (the explicit -ns
	// overrides quick's ladder, so the two compose).
	if err := run([]string{"-quick", "-ns", "5000,40000", "-budget", "200000", "-out", out}, &log); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "wrote") {
		t.Fatalf("log output missing summary line:\n%s", log.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if rep.Schema != "breathe-bench-kernel/v9" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.WordPath != "avx512" && rep.WordPath != "scalar" || rep.CPU == "" {
		t.Fatalf("artifact does not record the machine: word path %q, cpu %q", rep.WordPath, rep.CPU)
	}
	if !strings.Contains(log.String(), "phase decomposition") {
		t.Fatalf("log output missing the phase table:\n%s", log.String())
	}
	if rep.AsyncCell == nil {
		t.Fatal("artifact has no async quiet-span cell")
	}
	if !rep.AsyncCell.Identical {
		t.Fatalf("async cell reports divergent results: %+v", rep.AsyncCell)
	}
	if rep.AsyncCell.QuietSpans == 0 || rep.AsyncCell.QuietRounds == 0 {
		t.Fatalf("async cell skipped nothing: %+v", rep.AsyncCell)
	}
	if rep.SparseCell == nil {
		t.Fatal("artifact has no sparse-regime cell")
	}
	if rep.SparseCell.SparseRounds != int64(rep.SparseCell.Rounds) {
		t.Fatalf("sparse cell ran off-regime rounds: %+v", rep.SparseCell)
	}
	if rep.SparseCell.NsPerRound <= 0 {
		t.Fatalf("degenerate sparse cell: %+v", rep.SparseCell)
	}
	// 2 sizes × {serial, sharded}.
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.NsPerAgentRound <= 0 || c.Rounds < 3 || c.Messages <= 0 {
			t.Fatalf("degenerate cell: %+v", c)
		}
		// Every cell carries a phase decomposition with nonzero total.
		var phaseTotal int64
		for _, ns := range c.PhaseNs {
			phaseTotal += ns
		}
		if len(c.PhaseNs) == 0 || phaseTotal <= 0 {
			t.Fatalf("cell %+v has no phase decomposition", c)
		}
		// n = 40000 clears shardMinN (32768), so every cell — the
		// regime does not depend on the worker count — must report
		// sharded rounds there.
		if c.N == 40000 && c.Sharded == 0 {
			t.Fatalf("cell %+v executed no sharded rounds", c)
		}
	}
}

func TestBenchRejectsBadSizes(t *testing.T) {
	var log bytes.Buffer
	if err := run([]string{"-ns", "1,nope"}, &log); err == nil {
		t.Fatal("expected an error for a bad -ns list")
	}
}
