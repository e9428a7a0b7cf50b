package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSparseResponseBytes is the response-level acceptance pin for the
// sparse regime: across scenario classes — including the crash-thinned
// broadcast whose Stage II rounds actually run sparse — bulk and
// per-agent collection at every shard count must serialize to byte-identical canonical
// RunResponse JSON.
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
		// Its Stage I rounds count into acc and list few senders: the walker.
		{"async-offsets", RunRequest{Protocol: ProtoAsyncOffsets, N: 8192, Seed: 13, MaxRounds: 400}, true},
		{"async-selfsync", RunRequest{Protocol: ProtoAsyncSelfSync, N: 8192, Seed: 14, MaxRounds: 400}, false},
	}
	variants := []struct {
		perAgent bool
		shards   int
	}{
		{true, 1},
		{true, 4},
		{false, 4},
	}
	for _, sc := range scenarios {
		sc.req.Schedule = ScheduleKeyed
		want := runResponseBytes(t, sc.req, false)
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
			r.Shards = v.shards
			if got := runResponseBytes(t, r, v.perAgent); !bytes.Equal(got, want) {
				t.Errorf("%s per-agent=%v shards=%d: response bytes diverged",
					sc.name, v.perAgent, v.shards)
			}
		}
	}
}
