package rng

import (
	"encoding/binary"
	"math"
	"testing"
)

// scalarPath runs f with Fill and Words forced onto their scalar loops.
func scalarPath(f func()) {
	defer func(v bool) { vector = v }(vector)
	vector = false
	f()
}

// TestCellWordPathsAgree checks Fill and Words on the path this machine
// runs against the forced scalar loops and against Uint64, word by word:
// lengths around the kernels' 8- and 16-word strides, counters near the
// 2⁵⁶ retry boundary and across the 2⁶⁴ wrap, and indices up to
// MaxInt32. Neither may write past the words it was asked for. On a CPU
// without AVX-512 both sides run the scalar loops.
func TestCellWordPathsAgree(t *testing.T) {
	t.Logf("word path: %s", WordPath())
	c := NewKey(7).Cell(StreamCollision, 3)
	const pad = 5
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 8193} {
		for _, start := range []uint64{0, 17, 1<<56 - 9, 1 << 56, 1<<64 - 20} {
			got, want := make([]uint64, n+pad), make([]uint64, n+pad)
			c.Fill(got[:n], start)
			scalarPath(func() { c.Fill(want[:n], start) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d start=%#x: Fill word %d = %#x, scalar %#x", n, start, i, got[i], want[i])
				}
				if i < n && got[i] != c.Uint64(start+uint64(i)) {
					t.Fatalf("n=%d start=%#x: Fill word %d = %#x, Uint64 %#x", n, start, i, got[i], c.Uint64(start+uint64(i)))
				}
			}
		}
		idx := make([]int32, n)
		for i := range idx {
			// Spread over [0, MaxInt32], with both ends present.
			idx[i] = int32(uint32(i) * 0x9e3779b1 >> 1)
		}
		if n > 1 {
			idx[n/2] = math.MaxInt32
		}
		got, want := make([]uint64, n+pad), make([]uint64, n+pad)
		c.Words(got, idx)
		scalarPath(func() { c.Words(want, idx) })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Words word %d = %#x, scalar %#x", n, i, got[i], want[i])
			}
			if i < n && got[i] != c.Uint64(uint64(idx[i])) {
				t.Fatalf("n=%d: Words word %d = %#x, Uint64 %#x", n, i, got[i], c.Uint64(uint64(idx[i])))
			}
		}
	}
}

// TestGODEBUGTurnsVectorOff pins the runtime's spelling for turning
// AVX-512 off: the platform check must honour it.
func TestGODEBUGTurnsVectorOff(t *testing.T) {
	for _, v := range []string{"cpu.avx512f=off", "gctrace=0,cpu.avx512f=off", "cpu.all=off"} {
		t.Setenv("GODEBUG", v)
		if avx512() {
			t.Errorf("GODEBUG=%s: AVX-512 path still on", v)
		}
	}
}

// FuzzCellWords checks Words on arbitrary index lists, and Fill on
// arbitrary starts and lengths, against Uint64 — the scalar definition —
// on the path this machine runs.
func FuzzCellWords(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{})
	f.Add(uint64(2), uint64(1<<56-3), []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80})
	f.Add(uint64(3), uint64(1<<64-7), make([]byte, 4*17))
	f.Fuzz(func(t *testing.T, seed, start uint64, raw []byte) {
		c := NewKey(seed).Cell(StreamPlacement, start)
		idx := make([]int32, len(raw)/4)
		for i := range idx {
			idx[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		words := make([]uint64, len(idx))
		c.Words(words, idx)
		for i, x := range idx {
			if want := c.Uint64(uint64(x)); words[i] != want {
				t.Fatalf("Words word %d (index %d) = %#x, Uint64 %#x", i, x, words[i], want)
			}
		}
		fill := make([]uint64, len(raw))
		c.Fill(fill, start)
		for i, w := range fill {
			if want := c.Uint64(start + uint64(i)); w != want {
				t.Fatalf("Fill word %d from %#x = %#x, Uint64 %#x", i, start, w, want)
			}
		}
	})
}

// wordPaths runs one sub-benchmark per word path this machine has,
// path=vector (AVX-512) and path=scalar.
func wordPaths(b *testing.B, f func(b *testing.B)) {
	hw := vector
	for _, path := range []string{"vector", "scalar"} {
		b.Run("path="+path, func(b *testing.B) {
			if path == "vector" && !hw {
				b.Skip("no AVX-512 word path on this machine")
			}
			defer func(v bool) { vector = v }(vector)
			vector = path == "vector"
			f(b)
		})
	}
}

// BenchmarkCellFill measures one 8192-word Fill, the tree's per-bucket
// batch.
func BenchmarkCellFill(b *testing.B) {
	c := NewKey(1).Cell(StreamCollision, 1)
	buf := make([]uint64, 8192)
	wordPaths(b, func(b *testing.B) {
		b.SetBytes(int64(8 * len(buf)))
		for b.Loop() {
			c.Fill(buf, 0)
		}
	})
}

// BenchmarkCellWords measures one Words call over a 256-index block, the
// scatter's draw pass, at indices spread over a 2¹⁷-agent population.
func BenchmarkCellWords(b *testing.B) {
	c := NewKey(1).Cell(StreamPlacement, 1)
	idx := make([]int32, 256)
	for i := range idx {
		idx[i] = int32(c.Uint64(uint64(i)) >> 47)
	}
	out := make([]uint64, len(idx))
	wordPaths(b, func(b *testing.B) {
		b.SetBytes(int64(8 * len(out)))
		for b.Loop() {
			c.Words(out, idx)
		}
	})
}
