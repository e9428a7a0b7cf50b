package rng

// The keyed counter-mode generator: every draw is a pure function of its
// address, never of how many draws happened before it.
//
// The sequential generator in rng.go makes a simulation a pure function of
// (configuration, seed) only as long as every execution strategy consumes
// the streams in exactly the same order — which is why the repository long
// carried one golden matrix per kernel and a serial master-stream prologue
// in the sharded kernel. The keyed design removes the ordering dependence
// at the root: a draw is addressed by
//
//	(run seed, subsystem stream, round, index, counter)
//
// and computed by hashing that address, so any execution — per-agent or
// batched, serial or sharded, buckets in any order, on any number of
// goroutines or machines — that asks for the same address gets the same
// bits, and a subsystem drawing more or fewer variates cannot perturb any
// other subsystem's sequence.
//
// Construction (a SplitMix-tree): addresses are folded into 64-bit cell
// bases by chained applications of the SplitMix64 finalizer fmix64, each
// level injecting its coordinate via a distinct odd multiplier. Reading
// counter i of a cell evaluates fmix64(base + (i+1)·φ64) — exactly the
// output of the SplitMix64 sequence whose state starts at base, accessed
// randomly instead of sequentially, so the per-cell stream inherits
// SplitMix64's statistical quality (it passes BigCrush). keyed_test.go
// checks uniformity per stream, cross-stream independence and the
// isolation property directly.

// Stream identifies a subsystem's draw stream. Every consumer of keyed
// randomness owns one constant, so adding, removing or reordering the
// draws of one subsystem cannot change any other subsystem's sequence.
type Stream uint64

const (
	// StreamPlacement addresses recipient-selection draws, by sender id on
	// the scatter path and by receiver bucket on the dense tree path.
	StreamPlacement Stream = 1 + iota
	// StreamCollision addresses accept-one collision draws, by receiver.
	StreamCollision
	// StreamNoise addresses channel-noise draws, by receiver. (The dense
	// tree co-samples noise with the collision draw from StreamCollision,
	// as documented in internal/sim.)
	StreamNoise
	// StreamDrop addresses DropProb message-loss draws, by sender on the
	// scatter path and as aggregate thinning on the dense tree path.
	StreamDrop
	// StreamSplit addresses the dense tree's multinomial bucket splits, by
	// receiver bucket.
	StreamSplit
	// StreamCrash addresses crash-plan sampling, by agent id.
	StreamCrash
	// StreamObserver is reserved for observer-side randomness so tracing
	// can draw without touching any simulation stream.
	StreamObserver
	// Slot 8 is reserved: skipping it keeps every later stream's value,
	// and with it every keyed address, unchanged.
	_
	// StreamSchedule addresses protocol phase-boundary draws (stage
	// transitions), by agent id within the boundary round.
	StreamSchedule
	// StreamOffsets addresses the async protocols' initial clock-offset
	// draws, by agent id.
	StreamOffsets
)

const (
	// keyGolden is 2⁶⁴/φ, the SplitMix64 state increment; Cell counters
	// advance by it so counter reads are SplitMix64 outputs.
	keyGolden = 0x9e3779b97f4a7c15
	// keyGolden2 is a distinct odd multiplier used for the derivation
	// levels (stream, round, Sub), keeping derivation chains and counter
	// chains off each other's increments.
	keyGolden2 = 0xd1342543de82ef95
)

// fmix64 is the SplitMix64 output finalizer: an avalanche-complete
// bijection on 64 bits.
func fmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Key is the root of a run's keyed draw schedule, derived from the run
// seed. Keys are values: copying is free, and every derivation is pure, so
// a Key can be handed to any number of goroutines, processes or machines
// without synchronization or state exchange.
type Key struct {
	h uint64
}

// NewKey derives the draw-schedule root for a run seed.
func NewKey(seed uint64) Key {
	return Key{h: fmix64(seed + keyGolden)}
}

// Cell addresses one (stream, round) cell of the schedule: an independent
// random-access sequence of 64-bit words. Consumers index agents, senders,
// receivers or buckets within the cell.
func (k Key) Cell(s Stream, round uint64) Cell {
	h := fmix64(k.h + keyGolden + uint64(s)*keyGolden2)
	return Cell{base: fmix64(h + keyGolden + round*keyGolden2)}
}

// Cell is a random-access stream of uniform 64-bit words, addressed by
// counter. The zero Cell is a valid (if fixed) stream; real cells come
// from Key.Cell or Cell.Sub.
type Cell struct {
	base uint64
}

// Uint64 returns word i of the cell: fmix64(base + (i+1)·φ64), the i-th
// output of the SplitMix64 sequence starting at the cell base.
func (c Cell) Uint64(i uint64) uint64 {
	return fmix64(c.base + (i+1)*keyGolden)
}

// Sub derives child cell j. Derivation uses the second multiplier so child
// bases never collide with the parent's counter chain; by convention a
// cell is used either for Sub derivation or for direct draws, not both.
func (c Cell) Sub(j uint64) Cell {
	return Cell{base: fmix64(c.base + (j+1)*keyGolden2)}
}

// vector reports whether Fill and Words run their AVX-512 kernels. It is
// set once from the platform (see avx512); tests clear it to force the
// scalar loops, which every platform without the kernels runs and which
// are the reference the kernels are checked against.
var vector = avx512()

// Vector reports whether the AVX-512 gate is on: Fill and Words run
// their kernels, and so does every other vector body that defers to this
// gate (internal/sim's tree resolve). GODEBUG=cpu.avx512f=off turns all
// of them off at once.
func Vector() bool { return vector }

// WordPath names the path the gated kernels take on this machine —
// Fill, Words and internal/sim's tree resolve: "avx512" or "scalar".
// Both produce the same outputs.
func WordPath() string {
	if vector {
		return "avx512"
	}
	return "scalar"
}

// Fill writes words start, start+1, …, start+len(buf)−1 of the cell into
// buf — the bulk form of Uint64 for the kernels' draw passes over
// consecutive counters (the tree's per-bucket batches, the sparse
// walker's placement words). With AVX-512 it computes sixteen words per
// iteration, the remainder in the scalar loop.
func (c Cell) Fill(buf []uint64, start uint64) {
	x := c.base + start*keyGolden
	if vector && len(buf) >= 16 {
		n := len(buf) &^ 15
		fillAVX512(buf[:n], x)
		buf = buf[n:]
		x += uint64(n) * keyGolden
	}
	for i := range buf {
		x += keyGolden
		buf[i] = fmix64(x)
	}
}

// Words sets out[i] = c.Uint64(uint64(idx[i])) for every i < len(idx) —
// the bulk form of Uint64 over a list of addresses, for the kernels'
// draw passes over sender and receiver lists. out must be at least as
// long as idx. With AVX-512 it computes eight words per iteration, the
// remainder in the scalar loop.
func (c Cell) Words(out []uint64, idx []int32) {
	out = out[:len(idx)]
	n := 0
	if vector && len(idx) >= 8 {
		n = len(idx) &^ 7
		wordsAVX512(out[:n], idx, c.base)
	}
	for i := n; i < len(idx); i++ {
		out[i] = c.Uint64(uint64(idx[i]))
	}
}

// Uint64n returns a uniform integer in [0, n) addressed by i, using
// Lemire's multiply-shift rejection; rejection retries re-address attempt
// a at counter a<<56|i, so callers must keep i below 2⁵⁶. n must be
// positive.
func (c Cell) Uint64n(i, n uint64) uint64 {
	if n == 0 {
		panic("rng: Cell.Uint64n with n == 0")
	}
	x := c.Uint64(i)
	hi, lo := mul64(x, n)
	if lo < n {
		thresh := -n % n
		for a := uint64(1); lo < thresh; a++ {
			x = c.Uint64(a<<56 | i)
			hi, lo = mul64(x, n)
		}
	}
	return hi
}

// Uint32n is the 32-bit variant of Uint64n, one word per attempt, for hot
// paths whose range fits 32 bits. i must stay below 2⁵⁶; n must be
// positive.
func (c Cell) Uint32n(i uint64, n uint32) uint32 {
	if n == 0 {
		panic("rng: Cell.Uint32n with n == 0")
	}
	m := uint64(uint32(c.Uint64(i))) * uint64(n)
	if uint32(m) < n {
		thresh := -n % n
		for a := uint64(1); uint32(m) < thresh; a++ {
			m = uint64(uint32(c.Uint64(a<<56|i))) * uint64(n)
		}
	}
	return uint32(m >> 32)
}
