package api

import (
	"encoding/json"
	"reflect"
	"testing"

	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

// TestBuildMatchesDirectConstruction: each of the ablation and baseline
// names builds exactly the run its protocol, constructed by hand with the
// documented defaults, executes on a hand-written sim.Config — the same
// sim.Result, with self-messages on and off.
func TestBuildMatchesDirectConstruction(t *testing.T) {
	const n, eps, seed = 2048, 0.3, 9
	params := core.DefaultParams(n, eps)
	total := params.TotalRounds()
	cases := []struct {
		proto  string
		direct func() (sim.Protocol, error)
	}{
		{ProtoBroadcastNoBreathe, func() (sim.Protocol, error) {
			return core.NewBroadcastVariant(params, channel.One, core.Variant{NoBreathe: true})
		}},
		{ProtoImmediateForward, func() (sim.Protocol, error) {
			return &baseline.ImmediateForward{Target: channel.One, Rounds: total}, nil
		}},
		{ProtoVoter, func() (sim.Protocol, error) {
			return &baseline.NoisyVoter{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: total}, nil
		}},
		{ProtoTwoChoice, func() (sim.Protocol, error) {
			return &baseline.TwoChoiceMajority{Target: channel.One, InitialCorrect: n * 9 / 10, Rounds: total}, nil
		}},
		{ProtoSilentWait, func() (sim.Protocol, error) {
			return &baseline.SilentWait{Target: channel.One, Needed: 2, Rounds: sim.DefaultMaxRounds}, nil
		}},
	}
	for _, tc := range cases {
		for _, self := range []bool{true, false} {
			run, err := RunRequest{Protocol: tc.proto, N: n, Eps: eps, Seed: seed, NoSelfMessages: !self}.Build()
			if err != nil {
				t.Fatalf("%s: Build: %v", tc.proto, err)
			}
			got, err := sim.Run(run.Config, run.NewProtocol())
			if err != nil {
				t.Fatalf("%s: %v", tc.proto, err)
			}
			p, err := tc.direct()
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: seed, AllowSelfMessages: self}
			want, err := sim.Run(cfg, p)
			if err != nil {
				t.Fatalf("%s direct: %v", tc.proto, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s self=%v: built run diverged from direct construction\n got: %+v\nwant: %+v",
					tc.proto, self, got, want)
			}
			if got.Rounds == 0 || got.MessagesSent == 0 {
				t.Errorf("%s self=%v: empty run %+v", tc.proto, self, got)
			}
		}
	}
}

// TestBaselineHashPinned pins the content address of a baseline request:
// the new protocol names enter the preimage only through its protocol
// line, with no field or line added.
func TestBaselineHashPinned(t *testing.T) {
	const want = "01718bd67dbf5347d60616e5f8dd513039e187db4d528173372d85eefa6a901c"
	var r RunRequest
	if err := json.Unmarshal([]byte(`{"protocol":"voter","n":4096,"seed":1}`), &r); err != nil {
		t.Fatal(err)
	}
	if got := r.Hash(); got != want {
		t.Errorf("voter hash %s, want %s", got, want)
	}
}
