// Package simtest is test support for the engine in internal/sim.
//
// PerAgent wraps a protocol so that the engine's bulk collection runs on
// the per-agent rule: BulkSenders becomes a Send scan over every agent.
// The engine's keyed draws depend only on the sender multiset, and its
// sparse regime only on the lists' total length, so a wrapped run must
// match the unwrapped one byte for byte; tests compare the two to check
// every protocol's sender lists against its own Send. It also runs a
// protocol that has only the per-agent rules, such as a test chatter.
//
// The package imports nothing from internal/sim, so sim's in-package
// tests can use it too. The interfaces below restate the engine's method
// sets, which Go matches structurally.
package simtest

import (
	"breathe/internal/channel"
	"breathe/internal/rng"
)

// Protocol is the per-agent method set of sim.Protocol.
type Protocol interface {
	Name() string
	Setup(n int, key rng.Key)
	Send(a, round int) (bit channel.Bit, ok bool)
	Receive(a int, bit channel.Bit, round int)
	EndRound(round int)
	Done(round int) bool
	Opinion(a int) (bit channel.Bit, ok bool)
}

// bulkProtocol is the method set sim.Protocol adds to Protocol.
type bulkProtocol interface {
	BulkSenders(round int) (zeros, ones []int32)
	Accumulators(round int) []uint64
}

// Adapter is the protocol PerAgent returns. It implements sim.Protocol
// whatever the wrapped protocol implements; a wrapped protocol without
// the bulk methods has no accumulators.
type Adapter struct {
	Protocol
	bulk        bulkProtocol
	n           int
	zeros, ones []int32
}

// PerAgent wraps p so that the engine collects it through a Send scan,
// while the regime choice — the Accumulators answer — still comes from p;
// the sparse regime reads the lengths of the scanned lists, which equal
// p's own. A p without the bulk methods never accumulates, so every
// speaking round is a scatter round.
func PerAgent(p Protocol) *Adapter {
	b, _ := p.(bulkProtocol)
	return &Adapter{Protocol: p, bulk: b}
}

// Setup forwards to the wrapped protocol and records n for the Send scan.
func (a *Adapter) Setup(n int, key rng.Key) {
	a.n = n
	a.Protocol.Setup(n, key)
}

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

// Accumulators forwards to the wrapped protocol, nil without one.
func (a *Adapter) Accumulators(round int) []uint64 {
	if a.bulk == nil {
		return nil
	}
	return a.bulk.Accumulators(round)
}
