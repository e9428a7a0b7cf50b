package api

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSparseCutoverHashInvariance: SparseCutover steers only which
// executor runs sparse-accounted rounds, never a byte of the result, so
// like Shards and TraceEvery it must not enter the content address —
// whether the request names the schedule or not.
func TestSparseCutoverHashInvariance(t *testing.T) {
	for _, schedule := range []string{"", ScheduleKeyed} {
		base := RunRequest{N: 1024, Seed: 7, Schedule: schedule}
		h := base.Hash()
		for _, cutover := range []int{0, -1, 7, 1000} {
			r := RunRequest{N: 1024, Seed: 7, Schedule: schedule, SparseCutover: cutover}
			if got := r.Hash(); got != h {
				t.Errorf("schedule=%s sparse_cutover=%d changed the hash: %s vs %s",
					schedule, cutover, got, h)
			}
			if c := r.Canonical(); c.SparseCutover != 0 {
				t.Errorf("canonical kept sparse_cutover=%d", c.SparseCutover)
			}
		}
		a := RunRequest{N: 1024, Seed: 7, Schedule: schedule, SparseCutover: -1}
		if !reflect.DeepEqual(a.Canonical(), base.Canonical()) {
			t.Errorf("schedule=%s: canonical forms differ across sparse_cutover", schedule)
		}
	}
}

func TestSparseCutoverValidation(t *testing.T) {
	r := RunRequest{N: 1024, SparseCutover: -2}
	r.Normalize()
	if err := r.Validate(); err == nil {
		t.Error("Validate accepted sparse_cutover -2")
	}
	r.SparseCutover = -1
	if err := r.Validate(); err != nil {
		t.Errorf("Validate rejected sparse_cutover -1: %v", err)
	}
}

// TestSparseResponseBytes is the response-level acceptance pin for the
// sparse regime: across scenario classes — including the crash-thinned
// broadcast whose Stage II rounds actually run sparse — every
// SparseCutover × kernel × shards combination must serialize to
// byte-identical canonical RunResponse JSON.
func TestSparseResponseBytes(t *testing.T) {
	scenarios := []struct {
		name       string
		req        RunRequest
		wantSparse bool
	}{
		// Crash-thinned keyed broadcast: ~300-500 opinionated survivors at
		// n = 32768 put every Stage II round in the sparse regime.
		{"broadcast-sparse-crash", RunRequest{Protocol: ProtoBroadcast, N: 32768, Seed: 1, CrashProb: 0.96}, true},
		{"consensus", RunRequest{Protocol: ProtoConsensus, N: 8192, Seed: 12, ABias: 0.2}, false},
		{"async-offsets", RunRequest{Protocol: ProtoAsyncOffsets, N: 8192, Seed: 13, MaxRounds: 400}, false},
		{"async-selfsync", RunRequest{Protocol: ProtoAsyncSelfSync, N: 8192, Seed: 14, MaxRounds: 400}, false},
	}
	variants := []struct {
		cutover int
		kernel  string
		shards  int
	}{
		{-1, KernelAuto, 0},
		{7, KernelAuto, 0},
		{1 << 20, KernelAuto, 0},
		{-1, KernelPerAgent, 1},
		{0, KernelBatched, 4},
		{-1, KernelBatched, 4},
	}
	for _, sc := range scenarios {
		sc.req.Schedule = ScheduleKeyed
		ref := sc.req
		ref.Kernel = KernelAuto
		want := runResponseBytes(t, ref)
		var resp RunResponse
		if err := json.Unmarshal(want, &resp); err != nil {
			t.Fatal(err)
		}
		if gotSparse := resp.Paths.Sparse > 0; gotSparse != sc.wantSparse {
			t.Errorf("%s: paths.sparse = %d, want sparse=%v (paths %+v)",
				sc.name, resp.Paths.Sparse, sc.wantSparse, resp.Paths)
		}
		for _, v := range variants {
			r := sc.req
			r.SparseCutover = v.cutover
			r.Kernel = v.kernel
			r.Shards = v.shards
			if got := runResponseBytes(t, r); !bytes.Equal(got, want) {
				t.Errorf("%s cutover=%d kernel=%s shards=%d: response bytes diverged",
					sc.name, v.cutover, v.kernel, v.shards)
			}
		}
	}
}
