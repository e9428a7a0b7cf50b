// Package simtest is test support for the engine in internal/sim.
//
// PerAgent wraps a protocol so that the engine's bulk machinery runs on
// the per-agent interface: BulkSenders becomes a Send scan over every
// agent and BulkDeliver one Receive per message. The engine's keyed draws
// depend only on the sender multiset, so a wrapped run must match the
// unwrapped one byte for byte; tests compare the two to check every bulk
// protocol's answers against its own Send and Receive.
//
// The package imports nothing from internal/sim, so sim's in-package
// tests can use it too. The interfaces below restate the engine's method
// sets, which Go matches structurally.
package simtest

import (
	"breathe/internal/channel"
	"breathe/internal/rng"
)

// Protocol is the method set of sim.Protocol.
type Protocol interface {
	Name() string
	Setup(n int, key rng.Key)
	Send(a, round int) (bit channel.Bit, ok bool)
	Receive(a int, bit channel.Bit, round int)
	EndRound(round int)
	Done(round int) bool
	Opinion(a int) (bit channel.Bit, ok bool)
}

// bulkProtocol is the method set sim.BulkProtocol adds to Protocol.
type bulkProtocol interface {
	BulkEnabled() bool
	BulkSenders(round int) (zeros, ones []int32)
	BulkDeliver(receivers []int32, bits []channel.Bit, round int)
	BulkAccumulate(round int) bool
	BulkAccumulators() []uint64
}

// senderIndex is sim.SenderIndex.
type senderIndex interface {
	ActiveSenders(round int) int
}

// quietSpanner is sim.QuietSpanner.
type quietSpanner interface {
	NextActive(g int) int
}

// Adapter is the protocol PerAgent returns. It implements sim.Protocol,
// sim.BulkProtocol, sim.SenderIndex and sim.QuietSpanner whatever the
// wrapped protocol implements; the capabilities the wrapped protocol
// lacks answer as if absent.
type Adapter struct {
	Protocol
	bulk        bulkProtocol
	n           int
	zeros, ones []int32
}

// PerAgent wraps p so that the engine collects it through a Send scan and
// delivers scatter receptions through Receive, while the regime choice —
// BulkEnabled, BulkAccumulate, the accumulators, the declared active set
// and the quiet-span oracle — still comes from p.
func PerAgent(p Protocol) *Adapter {
	b, _ := p.(bulkProtocol)
	return &Adapter{Protocol: p, bulk: b}
}

// Setup forwards to the wrapped protocol and records n for the Send scan.
func (a *Adapter) Setup(n int, key rng.Key) {
	a.n = n
	a.Protocol.Setup(n, key)
}

// BulkEnabled reports the wrapped protocol's answer, false without one.
func (a *Adapter) BulkEnabled() bool { return a.bulk != nil && a.bulk.BulkEnabled() }

// BulkSenders scans Send over every agent, crashed ones included: the
// engine filters crashed senders out of bulk lists itself.
func (a *Adapter) BulkSenders(round int) (zeros, ones []int32) {
	zeros, ones = a.zeros[:0], a.ones[:0]
	for i := 0; i < a.n; i++ {
		bit, ok := a.Send(i, round)
		if !ok {
			continue
		}
		if bit == 0 {
			zeros = append(zeros, int32(i))
		} else {
			ones = append(ones, int32(i))
		}
	}
	a.zeros, a.ones = zeros, ones
	return zeros, ones
}

// BulkDeliver calls Receive once per accepted message, in order.
func (a *Adapter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, r := range receivers {
		a.Receive(int(r), bits[i], round)
	}
}

// BulkAccumulate forwards to the wrapped protocol.
func (a *Adapter) BulkAccumulate(round int) bool { return a.bulk.BulkAccumulate(round) }

// BulkAccumulators forwards to the wrapped protocol.
func (a *Adapter) BulkAccumulators() []uint64 { return a.bulk.BulkAccumulators() }

// ActiveSenders forwards to the wrapped protocol's sender index, and
// returns −1, which the engine reads as no index, when it has none.
func (a *Adapter) ActiveSenders(round int) int {
	if si, ok := a.Protocol.(senderIndex); ok {
		return si.ActiveSenders(round)
	}
	return -1
}

// NextActive forwards to the wrapped protocol's quiet-span oracle, and
// returns g, which declines the skip, when it has none.
func (a *Adapter) NextActive(g int) int {
	if qs, ok := a.Protocol.(quietSpanner); ok {
		return qs.NextActive(g)
	}
	return g
}
