package core

import (
	"reflect"
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// firstContactRule is a protocol run under the Stage I reception rule
// that counting replaced: an agent is activated by its first Stage I
// reception, collects only while its level is the current phase and it
// holds no opinion, and opinionated agents ignore Stage I receptions.
// Every other round runs the wrapped protocol's own code.
type firstContactRule struct {
	*Protocol
	activated []bool
}

func (r *firstContactRule) Receive(a int, bit channel.Bit, round int) {
	p := r.Protocol
	p.ensurePhase(round)
	if !p.curOK || p.curRef.Stage != StageI {
		p.Receive(a, bit, round)
		return
	}
	cur := int32(p.curRef.Index)
	if !r.activated[a] {
		r.activated[a] = true
		p.level[a] = cur
		p.acc[a] = uint64(bit)<<32 | 1
		if p.variant.NoBreathe {
			p.opinion[a] = bit
			p.hasOpinion[a] = true
			p.indexAdd(a)
			p.idxUnsorted = true
		}
		return
	}
	if p.level[a] == cur && !p.hasOpinion[a] && !p.variant.FirstMessage {
		p.acc[a] += uint64(bit)<<32 + 1
	}
}

func (r *firstContactRule) EndRound(round int) {
	p := r.Protocol
	p.ensurePhase(round)
	if !p.curOK || !p.curLast || p.curRef.Stage != StageI {
		p.EndRound(round)
		return
	}
	cur := int32(p.curRef.Index)
	cell := p.drawKey.Cell(rng.StreamSchedule, uint64(round)) //breathe:stream-ok the reference finalization stands in for the protocol's own: a run takes one or the other, and the gate compares the two on the same draws
	newly, correct := 0, 0
	p.idxZeros, p.idxOnes = p.idxZeros[:0], p.idxOnes[:0]
	for a := 0; a < p.n; a++ {
		if r.activated[a] && p.level[a] == cur {
			if !p.hasOpinion[a] {
				if cell.Uint64n(uint64(a), p.acc[a]&accTotalMask) < p.acc[a]>>32 {
					p.opinion[a] = channel.One
				} else {
					p.opinion[a] = channel.Zero
				}
				p.hasOpinion[a] = true
			}
			newly++
			if p.opinion[a] == p.target {
				correct++
			}
			p.acc[a] = 0
		}
		if p.hasOpinion[a] {
			p.indexAdd(a)
		}
	}
	cum := 0
	if k := len(p.telem.StageI); k > 0 {
		cum = p.telem.StageI[k-1].Activated
	}
	_, start, length := p.currentSpan(round)
	p.telem.StageI = append(p.telem.StageI, StageIPhaseStat{
		Phase: int(cur), StartRound: start, Rounds: length,
		Activated: cum + newly, NewlyActivated: newly, NewlyCorrect: correct,
	})
	if round == p.sched.StageIEnd()-1 {
		clear(p.acc)
		p.finishStageI()
	}
}

// TestCountingMatchesFirstContactRule is the exact gate for Stage I's one
// reception rule, counting, against the rule it replaced. Two copies of
// one protocol run in lockstep over the whole schedule on a minimal
// Flip-model round loop (uniform recipients, self-messages allowed,
// accept-one per receiver, noise), and every round both take the same
// accepted (receiver, bit) list in ascending receiver order. The counting
// copy takes the engine's route: the accumulator array whenever
// Accumulators offers it, Receive otherwise; the firstContactRule copy
// takes one Receive per message. After every round the two must list
// the same senders and hold the same opinions; after every phase
// boundary also the same levels, counters, sender index and telemetry.
func TestCountingMatchesFirstContactRule(t *testing.T) {
	const n = 2048
	params := DefaultParams(n, 0.3)
	sizeA := 4 * params.BetaS
	broadcast := func(v Variant) func() (*Protocol, error) {
		return func() (*Protocol, error) { return NewBroadcastVariant(params, channel.One, v) }
	}
	for _, tc := range []struct {
		name   string
		build  func() (*Protocol, error)
		stageI bool // the counting copy accumulates Stage I rounds
	}{
		{"paper", broadcast(Variant{}), true},
		{"first-message", broadcast(Variant{FirstMessage: true}), false},
		{"no-breathe", broadcast(Variant{NoBreathe: true}), false},
		{"first-msg+prefix", broadcast(Variant{FirstMessage: true, PrefixSubset: true}), false},
		{"consensus", func() (*Protocol, error) {
			return NewConsensus(params, channel.One, sizeA*3/4, sizeA-sizeA*3/4)
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func() *Protocol {
				p, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				p.Setup(n, rng.NewKey(9))
				return p
			}
			c := setup()
			o := &firstContactRule{Protocol: setup()}
			o.activated = slices.Clone(o.hasOpinion) // the source or the initial set

			var r rng.RNG
			r.Reseed(9)
			flip := channel.FromEpsilon(0.3).FlipProb()
			count := make([]int, n)
			kept := make([]channel.Bit, n)
			accumulated, boundaries := 0, 0
			for round := 0; !c.Done(round); round++ {
				zeros, ones := c.BulkSenders(round)
				zo, oo := o.BulkSenders(round)
				if !slices.Equal(zeros, zo) || !slices.Equal(ones, oo) {
					t.Fatalf("round %d: the copies list different senders", round)
				}
				for i := range len(zeros) + len(ones) {
					dst := r.Uint64n(n)
					count[dst]++
					if r.Uint64n(uint64(count[dst])) == 0 {
						kept[dst] = channel.Zero
						if i >= len(zeros) {
							kept[dst] = channel.One
						}
					}
				}
				acc := c.Accumulators(round)
				if acc != nil && c.curRef.Stage == StageI {
					accumulated++
				}
				for dst := range count {
					if count[dst] == 0 {
						continue
					}
					count[dst] = 0
					bit := kept[dst]
					if r.Float64() < flip {
						bit = bit.Flip()
					}
					if acc != nil {
						acc[dst] += uint64(bit)<<32 | 1
					} else {
						c.Receive(dst, bit, round)
					}
					o.Receive(dst, bit, round)
				}
				c.EndRound(round)
				o.EndRound(round)
				boundary := c.curOK && c.curLast
				if boundary {
					boundaries++
				}
				if diff := countingStateDiff(c, o.Protocol, boundary); diff != "" {
					t.Fatalf("round %d (phase boundary %v): %s differs between counting and the first-contact rule", round, boundary, diff)
				}
			}
			if (accumulated > 0) != tc.stageI || boundaries < params.K {
				t.Fatalf("gate saw %d accumulated Stage I rounds (want any: %v) and %d phase boundaries",
					accumulated, tc.stageI, boundaries)
			}
		})
	}
}

// countingStateDiff names the first piece of protocol state on which the
// two copies differ, or returns "". Levels, counters, the sender index
// and telemetry are compared only at a phase boundary: mid-phase the two
// rules keep Stage I activation differently.
func countingStateDiff(a, b *Protocol, boundary bool) string {
	switch {
	case !slices.Equal(a.hasOpinion, b.hasOpinion):
		return "hasOpinion"
	case !slices.Equal(a.opinion, b.opinion):
		return "opinion"
	case !boundary:
		return ""
	case !slices.Equal(a.level, b.level):
		return "level"
	case !slices.Equal(a.acc, b.acc):
		return "acc"
	case !slices.Equal(a.idxZeros, b.idxZeros) || !slices.Equal(a.idxOnes, b.idxOnes):
		return "sender index"
	case !reflect.DeepEqual(a.telem, b.telem):
		return "telemetry"
	}
	return ""
}
