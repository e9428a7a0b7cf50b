package api

import (
	"reflect"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// TestEpsHalfIsNoiselessBitForBit pins the honest ε = 0.5 channel: Build
// routes every ε through channel.FromEpsilon, so the noiseless boundary
// runs a BSC with flip probability 0 instead of the old channel.Noiseless
// special case. The two must be bit-for-bit interchangeable with bulk and
// per-agent collection — a p = 0 BSC draws nothing (like Noiseless) and flips nothing —
// otherwise dropping the special case would have changed cached hashes'
// meaning silently.
func TestEpsHalfIsNoiselessBitForBit(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		perAgent bool
	}{
		{ProtoBroadcast, true},
		{ProtoBroadcast, false},
		{ProtoAsyncOffsets, false},
		{ProtoAsyncSelfSync, true},
	} {
		req := RunRequest{Protocol: tc.protocol, N: 512, Eps: 0.5, Seed: 3}
		run, err := req.Build()
		if err != nil {
			t.Fatalf("%s/per-agent=%v: Build: %v", tc.protocol, tc.perAgent, err)
		}
		if name := run.Config.Channel.Name(); name != "bsc(p=0)" {
			t.Errorf("%s/per-agent=%v: ε=0.5 channel = %q, want the honest bsc(p=0)", tc.protocol, tc.perAgent, name)
		}
		proto := func() sim.Protocol {
			if tc.perAgent {
				return simtest.PerAgent(run.NewProtocol())
			}
			return run.NewProtocol()
		}

		gotRes, err := sim.Run(run.Config, proto())
		if err != nil {
			t.Fatalf("%s/per-agent=%v: Run: %v", tc.protocol, tc.perAgent, err)
		}
		wantCfg := run.Config
		wantCfg.Channel = channel.Noiseless{}
		wantRes, err := sim.Run(wantCfg, proto())
		if err != nil {
			t.Fatalf("%s/per-agent=%v: Noiseless Run: %v", tc.protocol, tc.perAgent, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s/per-agent=%v: ε=0.5 BSC result differs from Noiseless:\n%+v\n%+v",
				tc.protocol, tc.perAgent, gotRes, wantRes)
		}
	}
}
