// Package simtest is test support for the engine in internal/sim.
//
// PerAgent wraps a protocol so that the engine's bulk collection runs on
// the per-agent rules: BulkSenders becomes a Send scan over every agent
// and BulkDeliver one Receive per message. The engine's keyed draws
// depend only on the sender multiset, and its sparse regime only on the
// lists' total length, so a wrapped run must match the unwrapped one byte
// for byte; tests compare the two to check every protocol's bulk answers
// against its own Send and Receive. It also runs a protocol that has only
// the per-agent rules, such as a test chatter.
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
	BulkDeliver(receivers []int32, bits []channel.Bit, round int)
	BulkAccumulate(round int) bool
	BulkAccumulators() []uint64
}

// quietSpanner is sim.QuietSpanner.
type quietSpanner interface {
	NextActive(g int) int
}

// Adapter is the protocol PerAgent returns. It implements sim.Protocol
// and sim.QuietSpanner whatever the wrapped protocol implements; the
// capabilities the wrapped protocol lacks answer as if absent.
type Adapter struct {
	Protocol
	bulk        bulkProtocol
	n           int
	zeros, ones []int32
}

// PerAgent wraps p so that the engine collects it through a Send scan and
// delivers scatter receptions through Receive, while the regime choice —
// BulkAccumulate, the accumulators and the quiet-span oracle — still
// comes from p; the sparse regime reads the lengths of the scanned lists,
// which equal p's own. A p without the bulk methods never accumulates, so
// every speaking round is a scatter round.
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

// BulkDeliver calls Receive once per accepted message, in order.
func (a *Adapter) BulkDeliver(receivers []int32, bits []channel.Bit, round int) {
	for i, r := range receivers {
		a.Receive(int(r), bits[i], round)
	}
}

// BulkAccumulate forwards to the wrapped protocol, false without one.
func (a *Adapter) BulkAccumulate(round int) bool {
	return a.bulk != nil && a.bulk.BulkAccumulate(round)
}

// BulkAccumulators forwards to the wrapped protocol, nil without one.
func (a *Adapter) BulkAccumulators() []uint64 {
	if a.bulk == nil {
		return nil
	}
	return a.bulk.BulkAccumulators()
}

// NextActive forwards to the wrapped protocol's quiet-span oracle, and
// returns g, which declines the skip, when it has none.
func (a *Adapter) NextActive(g int) int {
	if qs, ok := a.Protocol.(quietSpanner); ok {
		return qs.NextActive(g)
	}
	return g
}
