package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"breathe/internal/api"
)

// TestRunSmallBroadcastBothKernels runs the serial and the sharded kernel.
func TestRunSmallBroadcastBothKernels(t *testing.T) {
	for _, shards := range []string{"1", "4"} {
		if err := run([]string{"-n", "2048", "-shards", shards, "-seed", "3"}, io.Discard, io.Discard); err != nil {
			t.Fatalf("shards %s: %v", shards, err)
		}
	}
}

func TestRunSmallConsensus(t *testing.T) {
	if err := run([]string{"-protocol", "consensus", "-n", "2048", "-seed", "4"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunExclusionMode(t *testing.T) {
	// -self=false keeps the thesis model's self-exclusion; the batched
	// kernel then uses its per-message path.
	if err := run([]string{"-n", "1024", "-self=false", "-seed", "5"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunAsyncProtocols(t *testing.T) {
	// The §3 protocols — the batched machinery covers them via the
	// offset-class sender lists.
	for _, proto := range []string{"async-offsets", "async-selfsync"} {
		if err := run([]string{"-protocol", proto, "-n", "1024", "-seed", "2"}, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
}

// TestRunBaselines runs the no-breathe ablation and the §1.6 baselines
// at n = 4096: each prints a paths line, gives byte-identical -json on
// one and four shards, and runs under self-exclusion too.
func TestRunBaselines(t *testing.T) {
	for _, proto := range []string{"broadcast-no-breathe", "immediate-forward", "voter", "two-choice", "silent-wait"} {
		t.Run(proto, func(t *testing.T) {
			args := []string{"-protocol", proto, "-n", "4096", "-seed", "1"}
			var out bytes.Buffer
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), "\npaths: ") {
				t.Errorf("no paths line:\n%s", out.String())
			}
			var one, four bytes.Buffer
			if err := run(append(args, "-json", "-shards", "1"), &one, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run(append(args, "-json", "-shards", "4"), &four, io.Discard); err != nil {
				t.Fatal(err)
			}
			if one.Len() == 0 || !bytes.Equal(one.Bytes(), four.Bytes()) {
				t.Errorf("-json differs between -shards 1 and -shards 4:\n%s\n%s", one.String(), four.String())
			}
			if err := run(append(args, "-self=false"), io.Discard, io.Discard); err != nil {
				t.Fatalf("-self=false: %v", err)
			}
		})
	}
}

func TestRunCrashFaults(t *testing.T) {
	// Crash plans on the batched kernel (per-message path), for the
	// synchronous and asynchronous protocols.
	cases := [][]string{
		{"-n", "2048", "-crash", "0.1", "-seed", "6"},
		{"-protocol", "consensus", "-n", "2048", "-crash", "0.1", "-seed", "7"},
		{"-protocol", "async-offsets", "-n", "1024", "-crash", "0.1", "-seed", "8"},
		{"-protocol", "async-selfsync", "-n", "1024", "-crash", "0.1", "-seed", "9"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	// -json emits the api.RunResponse on stdout; the run must succeed on
	// every protocol that the service also serves.
	for _, proto := range []string{"broadcast", "consensus"} {
		if err := run([]string{"-protocol", proto, "-n", "2048", "-seed", "3", "-json"}, io.Discard, io.Discard); err != nil {
			t.Fatalf("%s -json: %v", proto, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-n", "1"},
		{"-eps", "0.7"},
		{"-kernel", "auto"},
		{"-kernel", "per-agent"},
		{"-kernel", "batched"},
		{"-eps", "1e-300"},
		{"-protocol", "rumor"},
		{"-crash", "1.5"},
		{"-crash", "-0.1"},
		{"-eps", "NaN"},
		{"-eps", "+Inf"},
		{"-eps", "-Inf"},
		{"-crash", "NaN"},
		{"-crash", "+Inf"},
		{"-crash", "-Inf"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// runJSON runs megasim with -json and returns its stdout.
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-json"), &out, io.Discard); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if out.Len() == 0 {
		t.Fatalf("%v: no output", args)
	}
	return out.Bytes()
}

// TestKeyedShardIdentity is the keyed schedule's headline guarantee, end
// to end: for every scenario class, one and four workers emit the same
// canonical api.RunResponse JSON, byte for byte, as all cores do. The
// reference is computed fresh, not read from a golden.
func TestKeyedShardIdentity(t *testing.T) {
	for _, scen := range []string{
		"-n 49152",
		"-n 49152 -crash 0.05",
		"-n 49157",
		"-protocol consensus -n 20000",
		"-protocol async-offsets -n 20000",
		"-protocol async-selfsync -n 20000",
		"-protocol async-selfsync -n 20000 -crash 0.1",
		"-n 20000 -crash 0.1",
		"-n 20000 -self=false",
	} {
		t.Run(scen, func(t *testing.T) {
			args := append(strings.Fields(scen), "-seed", "1")
			ref := runJSON(t, args...)
			for _, shards := range []string{"1", "4"} {
				if got := runJSON(t, append(args, "-shards", shards)...); !bytes.Equal(got, ref) {
					t.Errorf("-shards %s differs from all cores:\n%s\n%s", shards, got, ref)
				}
			}
		})
	}
}

// TestSparseWalkerIdentity runs a crash-thinned broadcast whose Stage II
// rounds take the sparse walker (k listed senders, k·16 < n): the response
// must count sparse rounds, and one and four workers must emit the
// all-cores bytes. (The walker-versus-tree identity is pinned in
// internal/sim.)
func TestSparseWalkerIdentity(t *testing.T) {
	args := []string{"-n", "131072", "-crash", "0.95", "-seed", "1"}
	ref := runJSON(t, args...)
	var resp api.RunResponse
	if err := json.Unmarshal(ref, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Paths.Sparse == 0 {
		t.Errorf("no sparse rounds: %+v", resp.Paths)
	}
	for _, shards := range []string{"1", "4"} {
		if got := runJSON(t, append(args, "-shards", shards)...); !bytes.Equal(got, ref) {
			t.Errorf("-shards %s differs from all cores:\n%s\n%s", shards, got, ref)
		}
	}
}

// TestPhasesByteInert: arming the run probe (-phases prints the phase
// table from a live probe) leaves the canonical -json bytes unchanged.
func TestPhasesByteInert(t *testing.T) {
	for _, scen := range []string{
		"-n 20000 -seed 3",
		"-protocol async-selfsync -n 4096 -seed 3",
	} {
		args := strings.Fields(scen)
		off := runJSON(t, args...)
		if on := runJSON(t, append(args, "-phases")...); !bytes.Equal(on, off) {
			t.Errorf("%s: -phases changed the -json bytes:\n%s\n%s", scen, on, off)
		}
	}
}
