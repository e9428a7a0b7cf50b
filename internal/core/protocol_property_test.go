package core

import (
	"testing"
	"testing/quick"

	"breathe/internal/channel"
	"breathe/internal/sim"
)

// Property-based tests over randomized parameter sets: the protocol's
// structural invariants must hold for any valid configuration, not only
// the calibrated defaults.

// randomParams maps arbitrary fuzz input to a valid (small) Params.
func randomParams(nRaw, epsRaw uint16) Params {
	n := 16 + int(nRaw%512)
	eps := 0.1 + 0.4*float64(epsRaw)/65535 // in [0.1, 0.5]
	return DefaultParams(n, eps)
}

func TestQuickScheduleCoversEveryRound(t *testing.T) {
	f := func(nRaw, epsRaw uint16, start uint8) bool {
		p := randomParams(nRaw, epsRaw)
		sp := int(start) % (p.T + 2)
		s, err := NewSchedule(p, sp)
		if err != nil {
			return false
		}
		// Every round maps to exactly one phase, spans are contiguous,
		// and the total matches.
		next := 0
		for pos := 0; pos < s.NumPhases(); pos++ {
			_, st, l := s.PhaseByPosition(pos)
			if st != next || l < 1 {
				return false
			}
			next = st + l
		}
		if next != s.TotalRounds() {
			return false
		}
		for _, r := range []int{0, s.TotalRounds() / 2, s.TotalRounds() - 1} {
			if _, _, _, ok := s.At(r); !ok {
				return false
			}
		}
		_, _, _, ok := s.At(s.TotalRounds())
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickParamsAlwaysValid(t *testing.T) {
	f := func(nRaw, epsRaw uint16) bool {
		p := randomParams(nRaw, epsRaw)
		if p.Validate() != nil {
			return false
		}
		return p.Gamma%2 == 1 && p.GammaFinal%2 == 1 &&
			p.TotalRounds() == p.StageIRounds()+p.StageIIRounds() &&
			p.MemoryBits() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickConsensusStartPhaseInRange(t *testing.T) {
	f := func(nRaw, epsRaw uint16, sizeRaw uint16) bool {
		p := randomParams(nRaw, epsRaw)
		size := 1 + int(sizeRaw)%p.N
		sp := p.StartPhaseForConsensus(size)
		return sp >= 1 && sp <= p.T+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickRunInvariants runs small random broadcast configurations end
// to end and checks conservation laws and result sanity. Population and
// noise vary; the run must never panic, truncate, or miscount.
func TestQuickRunInvariants(t *testing.T) {
	count := 0
	f := func(nRaw, epsRaw uint16, seed uint16) bool {
		count++
		n := 32 + int(nRaw%128)
		eps := 0.25 + 0.25*float64(epsRaw)/65535
		params := DefaultParams(n, eps)
		p, err := NewBroadcast(params, channel.One)
		if err != nil {
			return false
		}
		res, err := sim.Run(sim.Config{N: n, Channel: channel.FromEpsilon(eps), Seed: uint64(seed)}, p)
		if err != nil {
			return false
		}
		if res.Truncated {
			return false
		}
		if res.MessagesSent != res.MessagesAccepted+res.MessagesDropped {
			return false
		}
		if res.Opinions[0]+res.Opinions[1]+res.Undecided != n {
			return false
		}
		return res.Rounds == params.TotalRounds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	if count == 0 {
		t.Fatal("property never exercised")
	}
}
