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
	// A tiny ladder keeps the test fast while covering all three kernels;
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
	if rep.Schema != "breathe-bench-kernel/v6" {
		t.Fatalf("schema = %q", rep.Schema)
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
	if !rep.SparseCell.Identical {
		t.Fatalf("sparse cell reports divergent results: %+v", rep.SparseCell)
	}
	if rep.SparseCell.SparseRounds != int64(rep.SparseCell.Rounds) {
		t.Fatalf("sparse cell ran off-regime rounds: %+v", rep.SparseCell)
	}
	if rep.SparseCell.Speedup <= 1 {
		t.Fatalf("sparse walker slower than the dense tree: %+v", rep.SparseCell)
	}
	// 2 sizes × 3 kernels.
	if len(rep.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(rep.Cells))
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
		// n = 40000 clears shardMinN (32768), so every kernel — the
		// regime is kernel-independent — must report sharded rounds
		// there.
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
