package api

import (
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzRunRequest checks the request contract on arbitrary field values:
// Normalize and Canonical are idempotent, a request hashes like its
// canonical form, a valid canonical request keeps its hash through a JSON
// round trip, Validate never panics, and Build never panics on a valid
// request. Build is exercised only up to n = 2¹⁶ so one input's
// protocol allocation stays small. The seed corpus in
// testdata/fuzz/FuzzRunRequest holds the probes that once crashed the
// service or built a nonsense schedule (eps 1e-300, 1e-12, NaN, and
// n = 2³³, past the engine's int32 agent ids).
func FuzzRunRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, protocol string, n int, eps float64, seed uint64, maxRounds int,
		noSelf bool, drop, abias, crash float64, crashRound int,
		kernel, schedule string, shards, trajectoryEvery, traceEvery int) {
		r := RunRequest{
			Protocol: protocol, N: n, Eps: eps, Seed: seed, MaxRounds: maxRounds,
			NoSelfMessages: noSelf, DropProb: drop, ABias: abias,
			CrashProb: crash, CrashRound: crashRound, Kernel: kernel,
			Schedule: schedule, Shards: shards,
			TrajectoryEvery: trajectoryEvery, TraceEvery: traceEvery,
		}
		// %#v, unlike ==, treats a NaN field as equal to itself.
		same := func(a, b RunRequest) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

		norm := r
		norm.Normalize()
		twice := norm
		twice.Normalize()
		if !same(norm, twice) {
			t.Fatalf("Normalize is not idempotent:\n%#v\n%#v", norm, twice)
		}
		c := r.Canonical()
		if cc := c.Canonical(); !same(c, cc) {
			t.Fatalf("Canonical is not idempotent:\n%#v\n%#v", c, cc)
		}
		if r.Hash() != c.Hash() {
			t.Fatalf("Hash(r) != Hash(Canonical(r)) for %#v", r)
		}

		if norm.Validate() != nil {
			return
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal valid canonical request %#v: %v", c, err)
		}
		var back RunRequest
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if back.Hash() != c.Hash() {
			t.Fatalf("JSON round trip moved the hash: %s", raw)
		}
		if norm.N <= 1<<16 {
			if _, err := norm.Build(); err != nil {
				t.Fatalf("Build rejected a valid request %#v: %v", norm, err)
			}
		}
	})
}
