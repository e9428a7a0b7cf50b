package main

import "testing"

func TestRunSmallBroadcastBothKernels(t *testing.T) {
	for _, kernel := range []string{"auto", "per-agent"} {
		if err := run([]string{"-n", "2048", "-kernel", kernel, "-seed", "3"}); err != nil {
			t.Fatalf("kernel %s: %v", kernel, err)
		}
	}
}

func TestRunSmallConsensus(t *testing.T) {
	if err := run([]string{"-protocol", "consensus", "-n", "2048", "-seed", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExclusionMode(t *testing.T) {
	// -self=false keeps the thesis model's self-exclusion; the batched
	// kernel then uses its per-message path.
	if err := run([]string{"-n", "1024", "-self=false", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAsyncProtocols(t *testing.T) {
	// The §3 protocols on both kernels — the batched machinery covers
	// them via the offset-class sender lists.
	for _, proto := range []string{"async-offsets", "async-selfsync"} {
		for _, kernel := range []string{"auto", "per-agent"} {
			if err := run([]string{"-protocol", proto, "-n", "1024", "-kernel", kernel, "-seed", "2"}); err != nil {
				t.Fatalf("%s on %s: %v", proto, kernel, err)
			}
		}
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
		if err := run(args); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	// -json emits the api.RunResponse on stdout; the run must succeed on
	// every protocol that the service also serves.
	for _, proto := range []string{"broadcast", "consensus"} {
		if err := run([]string{"-protocol", proto, "-n", "2048", "-seed", "3", "-json"}); err != nil {
			t.Fatalf("%s -json: %v", proto, err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-n", "1"},
		{"-eps", "0.7"},
		{"-kernel", "warp"},
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
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
