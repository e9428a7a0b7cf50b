package main

import (
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad int accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0.1, 0.25}) {
		t.Fatalf("parseFloats = %v", got)
	}
	if _, err := parseFloats("0.1,?"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestRunSmallSweep(t *testing.T) {
	for _, format := range []string{"csv", "table", "markdown"} {
		args := []string{"-ns", "128", "-epss", "0.3", "-seeds", "2", "-format", format}
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
	}
}

func TestRunReportsRoundsAcrossSeeds(t *testing.T) {
	// Regression: the rounds column used to be overwritten every seed
	// iteration, reporting only the last seed's count. The table carries
	// the mean and max across the cell's seeds; for the broadcast
	// protocol the schedule is deterministic, so both must equal the
	// fixed round count of every run.
	var buf strings.Builder
	if err := run([]string{"-ns", "128", "-epss", "0.3", "-seeds", "3", "-workers", "2"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d CSV lines, want header + 1 row:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	wantHeader := []string{"protocol", "n", "eps", "crash", "mean_rounds",
		"max_rounds", "mean_messages", "success_rate", "mean_stage1_bias"}
	if !reflect.DeepEqual(header, wantHeader) {
		t.Fatalf("header = %v, want %v", header, wantHeader)
	}
	row := strings.Split(lines[1], ",")
	if row[0] != "broadcast" {
		t.Fatalf("protocol column = %q", row[0])
	}
	if row[4] == "0" || row[5] == "0" {
		t.Fatalf("rounds columns empty: %v", row)
	}
	if row[4] != row[5] {
		t.Fatalf("deterministic schedule: mean_rounds %s != max_rounds %s", row[4], row[5])
	}
}

// TestRunFullScenarioGrid: the grid axes the old sweep could not express
// — async protocols and crash cells — run end to end, one row per cell
// in grid order.
func TestRunFullScenarioGrid(t *testing.T) {
	var buf strings.Builder
	args := []string{"-protocol", "broadcast,async-offsets,async-selfsync",
		"-ns", "128", "-epss", "0.3", "-crash", "0,0.05", "-seeds", "1"}
	if err := run(args, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3*2 {
		t.Fatalf("got %d CSV lines, want header + 6 cells:\n%s", len(lines), buf.String())
	}
	// Async cells must leave the bias column empty (no Stage I telemetry)
	// while broadcast cells fill it.
	for _, line := range lines[1:] {
		cols := strings.Split(line, ",")
		isAsync := strings.HasPrefix(cols[0], "async")
		if isAsync && cols[8] != "" {
			t.Errorf("async cell carries stage1 bias %q: %s", cols[8], line)
		}
		if !isAsync && cols[8] == "" {
			t.Errorf("broadcast cell lost its stage1 bias: %s", line)
		}
	}
}

func TestRunSweepIsReproducibleAndSeedSensitive(t *testing.T) {
	render := func(args ...string) string {
		var buf strings.Builder
		if err := run(append([]string{"-ns", "128", "-epss", "0.3", "-seeds", "2"}, args...), &buf, io.Discard); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render("-workers", "1") != render("-workers", "3") {
		t.Fatal("worker count changed the sweep output")
	}
	if render("-workers", "1", "-shards", "2") != render("-workers", "2", "-shards", "1") {
		t.Fatal("shard count changed the sweep output")
	}
	if render("-seed", "0") == render("-seed", "1000") {
		t.Fatal("different base seeds produced identical sweeps")
	}
}

// TestRunInterruptResume pins the checkpoint contract at the CLI level:
// an interrupted sweep emits no table, and the resumed run serves every
// checkpointed run from the file (zero recomputed cells) while producing
// CSV byte-identical to an uninterrupted sweep.
func TestRunInterruptResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
	grid := []string{"-protocol", "broadcast,async-offsets", "-ns", "128",
		"-epss", "0.3", "-crash", "0,0.05", "-seeds", "2", "-checkpoint", ckpt}

	var full strings.Builder
	if err := run(grid, &full, io.Discard); err != nil {
		t.Fatal(err)
	}

	ckpt2 := filepath.Join(t.TempDir(), "grid2.ckpt")
	grid2 := append(append([]string(nil), grid[:len(grid)-1]...), ckpt2)
	var interrupted strings.Builder
	if err := run(append(grid2, "-abort-after", "2"), &interrupted, io.Discard); err != nil {
		t.Fatal(err)
	}
	if interrupted.Len() != 0 {
		t.Fatalf("interrupted sweep wrote a partial table:\n%s", interrupted.String())
	}

	var resumed, progress strings.Builder
	if err := run(append(grid2, "-resume"), &resumed, &progress); err != nil {
		t.Fatal(err)
	}
	if full.String() != resumed.String() {
		t.Errorf("resumed CSV differs from uninterrupted:\n%s\nvs\n%s", resumed.String(), full.String())
	}
	// 2 cells × 2 seeds were checkpointed; the resume must serve all 4
	// from the file.
	if !strings.Contains(progress.String(), "computed 4, cache 0, checkpoint 4") {
		t.Errorf("resume counters wrong:\n%s", progress.String())
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{"-ns", "x"},
		{"-epss", "y"},
		{"-crash", "z"},
		{"-ns", "128", "-epss", "0.3", "-seeds", "0"},
		{"-ns", "1", "-epss", "0.3"},
		{"-ns", "128", "-epss", "0.7"},
		{"-ns", "128", "-epss", "0.3", "-protocol", "bogus"},
		{"-ns", "128", "-epss", "0.3", "-crash", "1.5"},
		{"-ns", "128", "-epss", "0.3", "-kernel", "vector"},
		{"-ns", "128", "-epss", "0.3", "-format", "xml"},
		{"-ns", "128", "-epss", "0.3", "-resume"},
		{"-ns", "128", "-epss", "0.3", "-abort-after", "1"},
		{"-bogus"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
