package sim

import (
	"fmt"
	"slices"
	"testing"

	"breathe/internal/rng"
)

// treePlaceRef is the tree placement one message at a time, the loop
// treePlace must match: message i reads lane i&3 of word i>>2, and the
// loop stops at the first arrival whose counter already holds 65535.
func treePlaceRef(inbox []uint32, draws []uint64, i, k int, inc uint32) int {
	mask := uint64(len(inbox) - 1)
	for ; i < k; i++ {
		slot := draws[i>>2] >> (uint(i&3) * 16) & mask
		nv := inbox[slot] + inc
		if nv&0xffff == 0 {
			break
		}
		inbox[slot] = nv
	}
	return i
}

// placeTreeRef is placeTree over treePlaceRef.
func (d *denseRun) placeTreeRef(lo int, inbox []uint32, k int, inc uint32, draws []uint64) {
	for i := 0; i < k; i++ {
		if i = treePlaceRef(inbox, draws, i, k, inc); i == k {
			break
		}
		slot := draws[i>>2] >> (uint(i&3) * 16) & uint64(len(inbox)-1)
		d.spillAdd(int32(lo)+int32(slot), inc>>16)
	}
}

// placeInbox returns a denseWidth-word inbox whose first size slots hold
// small random counters, one slot in sat with a counter of 65532–65535,
// and whose padding is zero; every counter's ones are at most its count.
func placeInbox(r *rng.RNG, size, sat int) *[denseWidth]uint32 {
	var inbox [denseWidth]uint32
	for s := range size {
		cnt := intn(r, 4)
		if intn(r, sat) == 0 {
			cnt = 0xffff - intn(r, 4)
		}
		inbox[s] = uint32(intn(r, cnt+1))<<16 | uint32(cnt)
	}
	return &inbox
}

// TestTreePlaceMatchesScalar drives treePlace and treePlaceRef from the
// same inbox and draws, resuming both past each saturated arrival as
// placeTree does, and demands the same returned index and the same
// inbox — padding included — after every call. Buckets have denseWidth
// or 1024 slots; a twentieth of the counters start at 65532–65535;
// the start index and the message count take every residue mod 4; both
// classes' increments are used.
func TestTreePlaceMatchesScalar(t *testing.T) {
	r := seeded(36)
	spills := 0
	for _, size := range []int{denseWidth, 1024} {
		for _, inc := range []uint32{1, 1<<16 | 1} {
			for start := range 4 {
				for kmod := range 4 {
					k := 4*(size/4+intn(r, 64)) + kmod
					i0 := 4*intn(r, 8) + start
					draws := make([]uint64, (k+3)/4)
					for w := range draws {
						draws[w] = r.Uint64()
					}
					inbox := placeInbox(r, size, 20)
					ref := slices.Clone(inbox[:size])
					name := fmt.Sprintf("size=%d inc=%#x i0=%d k=%d", size, inc, i0, k)
					for i := i0; i < k; i++ {
						got := treePlace(inbox, uint32(size-1), draws, i, k, inc)
						want := treePlaceRef(ref, draws, i, k, inc)
						if got != want {
							t.Fatalf("%s: from %d: treePlace returned %d, reference %d", name, i, got, want)
						}
						if !slices.Equal(inbox[:size], ref) {
							t.Fatalf("%s: from %d: inboxes differ", name, i)
						}
						if j := slices.IndexFunc(inbox[size:], func(v uint32) bool { return v != 0 }); j >= 0 {
							t.Fatalf("%s: from %d: padding slot %d written", name, i, size+j)
						}
						if i = got; i < k {
							spills++
						}
					}
				}
			}
		}
	}
	if spills == 0 {
		t.Fatal("no arrival met a saturated counter")
	}
}

// TestPlaceTreeSpill places both classes into a bucket one of whose slots
// is two arrivals short of saturation and receives every seventh message,
// and demands placeTree's spill list and inbox equal the reference's.
func TestPlaceTreeSpill(t *testing.T) {
	const lo, size, hot = 3 * denseWidth, 1024, 5
	r := seeded(7)
	for _, k := range []int{400, 401, 402, 403} {
		var got, want denseRun
		inbox := placeInbox(r, size, 1<<30)
		inbox[hot] = 0xfffd
		ref := slices.Clone(inbox[:size])
		for _, inc := range []uint32{1, 1<<16 | 1} {
			draws := make([]uint64, (k+3)/4)
			for w := range draws {
				draws[w] = r.Uint64()
			}
			for i := 0; i < k; i += 7 {
				sh := uint(i&3) * 16
				draws[i>>2] = draws[i>>2]&^(0xffff<<sh) | hot<<sh
			}
			got.placeTree(lo, inbox, size-1, k, inc, draws)
			want.placeTreeRef(lo, ref, k, inc, draws)
		}
		if len(want.spill) == 0 {
			t.Fatalf("k=%d: the reference spilled nothing", k)
		}
		if !slices.Equal(got.spill, want.spill) {
			t.Fatalf("k=%d: spill lists differ:\nplaceTree %v\nreference %v", k, got.spill, want.spill)
		}
		if !slices.Equal(inbox[:size], ref) {
			t.Fatalf("k=%d: inboxes differ", k)
		}
	}
}

// BenchmarkTreePlace times the tree placement of 8192 messages (λ = 1)
// into one 8192-slot bucket, on the word loop (placeTree) and on the
// one-message reference. Each op clears the inbox first, and the clear
// is part of the op.
func BenchmarkTreePlace(b *testing.B) {
	draws := make([]uint64, denseWidth/4)
	rng.NewKey(1).Cell(rng.StreamPlacement, 1).Fill(draws, 0)
	for _, leg := range []string{"word", "reference"} {
		b.Run(leg, func(b *testing.B) {
			var d denseRun
			inbox := new([denseWidth]uint32)
			for b.Loop() {
				clear(inbox[:])
				if leg == "word" {
					d.placeTree(0, inbox, denseWidth-1, denseWidth, 1, draws)
				} else {
					d.placeTreeRef(0, inbox[:], denseWidth, 1, draws)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*denseWidth), "ns/msg")
		})
	}
}
