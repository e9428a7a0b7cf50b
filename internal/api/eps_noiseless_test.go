package api

import (
	"reflect"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/sim"
)

// TestEpsHalfIsNoiselessBitForBit pins the honest ε = 0.5 channel: Build
// routes every ε through channel.FromEpsilon, so the noiseless boundary
// runs a BSC with flip probability 0 instead of the old channel.Noiseless
// special case. The two must be bit-for-bit interchangeable on every
// kernel — a p = 0 BSC draws nothing (like Noiseless) and flips nothing —
// otherwise dropping the special case would have changed cached hashes'
// meaning silently.
func TestEpsHalfIsNoiselessBitForBit(t *testing.T) {
	for _, tc := range []struct {
		protocol string
		kernel   string
	}{
		{ProtoBroadcast, KernelPerAgent},
		{ProtoBroadcast, KernelAuto},
		{ProtoAsyncOffsets, KernelAuto},
		{ProtoAsyncSelfSync, KernelPerAgent},
	} {
		req := RunRequest{Protocol: tc.protocol, N: 512, Eps: 0.5, Seed: 3, Kernel: tc.kernel}
		run, err := req.Build()
		if err != nil {
			t.Fatalf("%s/%s: Build: %v", tc.protocol, tc.kernel, err)
		}
		if name := run.Config.Channel.Name(); name != "bsc(p=0)" {
			t.Errorf("%s/%s: ε=0.5 channel = %q, want the honest bsc(p=0)", tc.protocol, tc.kernel, name)
		}

		gotRes, err := sim.Run(run.Config, run.NewProtocol())
		if err != nil {
			t.Fatalf("%s/%s: Run: %v", tc.protocol, tc.kernel, err)
		}
		wantCfg := run.Config
		wantCfg.Channel = channel.Noiseless{}
		wantRes, err := sim.Run(wantCfg, run.NewProtocol())
		if err != nil {
			t.Fatalf("%s/%s: Noiseless Run: %v", tc.protocol, tc.kernel, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s/%s: ε=0.5 BSC result differs from Noiseless:\n%+v\n%+v",
				tc.protocol, tc.kernel, gotRes, wantRes)
		}
	}
}
