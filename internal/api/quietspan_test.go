package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/sim"
	"breathe/internal/sim/simtest"
)

// runResponseBytesSkip builds and executes one request with quiet-span
// skipping on or off, and returns the canonical response bytes plus the
// number of spans the engine skipped. Skipping is turned off by an
// observer without a declared cadence, installed on the built sim.Config —
// the request schema has no such setting — so the serialized response
// cannot even represent which mode computed it.
func runResponseBytesSkip(t *testing.T, req RunRequest, noskip bool) ([]byte, int64) {
	t.Helper()
	run, err := req.Build()
	if err != nil {
		t.Fatalf("Build(%+v): %v", req, err)
	}
	if noskip {
		run.Config.Observer = func(int, *sim.Engine) {}
	}
	e, err := sim.NewEngine(run.Config)
	if err != nil {
		t.Fatal(err)
	}
	p := run.NewProtocol()
	res := e.Run(p)
	raw, err := json.Marshal(NewResponse(req, res, run.Crashed, p))
	if err != nil {
		t.Fatal(err)
	}
	return raw, e.QuietSpans()
}

// TestQuietSpanResponseBytes is the service-boundary acceptance suite for
// quiet-span skipping: for both async protocols, with and without crash
// faults, across Shards 1/2/8, the canonical response bytes — hash and
// all — are identical whether the engine skipped quiet spans or executed
// every round. The self-sync scenarios must actually skip (their prelude
// structure guarantees dilation gaps); the dense-offset scenarios ride
// along to prove the skip never corrupts a gap-free schedule either.
func TestQuietSpanResponseBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full async schedules many times")
	}
	for _, proto := range []string{ProtoAsyncSelfSync, ProtoAsyncOffsets} {
		for _, crash := range []float64{0, 0.1} {
			base := RunRequest{
				Protocol: proto, N: 4096, Seed: 23,
				Schedule: ScheduleKeyed, CrashProb: crash,
			}
			var ref []byte
			for _, shards := range []int{1, 2, 8} {
				for _, noskip := range []bool{false, true} {
					req := base
					req.Shards = shards
					raw, spans := runResponseBytesSkip(t, req, noskip)
					name := fmt.Sprintf("%s crash=%.1f shards=%d noskip=%v", proto, crash, shards, noskip)
					if ref == nil {
						ref = raw
					} else if !bytes.Equal(ref, raw) {
						t.Errorf("%s: response bytes diverged from reference:\n%s\n%s", name, ref, raw)
					}
					if noskip && spans != 0 {
						t.Errorf("%s: unskipped engine skipped %d spans", name, spans)
					}
					if !noskip && proto == ProtoAsyncSelfSync && spans == 0 {
						t.Errorf("%s: no spans skipped — the suite is not exercising the skip path", name)
					}
				}
			}
		}
	}
}

// quietStub is a protocol that never sends: every round of its fixed
// schedule is quiet, so the response's primary_path must say "quiet".
type quietStub struct{ total int }

func (q *quietStub) Name() string                      { return "quiet-stub" }
func (q *quietStub) Setup(int, rng.Key)                {}
func (q *quietStub) Send(int, int) (channel.Bit, bool) { return 0, false }
func (q *quietStub) Receive(int, channel.Bit, int)     {}
func (q *quietStub) EndRound(int)                      {}
func (q *quietStub) Done(g int) bool                   { return g >= q.total }
func (q *quietStub) Opinion(int) (channel.Bit, bool)   { return 0, false }

// TestResponsePrimaryPathAllQuiet pins the documented PrimaryPath
// convention at the response layer: a run in which no round carried a
// message reports primary_path "quiet" — the one case the "dominant
// non-quiet path" reading has no candidate for.
func TestResponsePrimaryPathAllQuiet(t *testing.T) {
	req := RunRequest{N: 64, Seed: 3, Schedule: ScheduleKeyed}
	req.Normalize()
	res, err := sim.Run(sim.Config{
		N: 64, Channel: channel.FromEpsilon(0.3), Seed: 3,
	}, simtest.PerAgent(&quietStub{total: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 0 {
		t.Fatalf("stub sent %d messages", res.MessagesSent)
	}
	resp := NewResponse(req, res, 0, simtest.PerAgent(&quietStub{}))
	if resp.PrimaryPath != "quiet" {
		t.Errorf("all-quiet response primary_path = %q, want \"quiet\"", resp.PrimaryPath)
	}
}
