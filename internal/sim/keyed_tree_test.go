package sim

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// refTreeSlot is the tree's draw spec for one slot t of a bucket whose
// collision cell is cc, holding cnt arrivals of which on are ones (spill
// tail included); it returns the slot's accumulator delta. A slot with
// fewer than 2048 arrivals accepts one through an 11-bit Lemire draw on
// the low bits of word t: the value (u·cnt)>>11 stands when
// (u·cnt) mod 2048 ≥ 2048 mod cnt, and attempt a re-reads counter
// a·denseWidth + t. A unanimous slot accepts its class bit and never
// retries. The noise flip reads the top 53 bits of the accepted word.
// From 2048 arrivals on, an ephemeral stream seeded by counter 2⁶⁰ + t
// draws the accept-one and then the flip.
func refTreeSlot(cc rng.Cell, t, cnt, on, thresh uint64) uint64 {
	if cnt == 0 {
		return 0
	}
	var bit, flip bool
	if cnt >= 2048 {
		var rr rng.RNG
		rr.Reseed(cc.Uint64(1<<60 | t))
		switch {
		case on == 0:
		case on == cnt:
			bit = true
		default:
			bit = rr.Uint64n(cnt) < on
		}
		flip = rr.Uint64()>>11 < thresh
	} else {
		x := cc.Uint64(t)
		if on == 0 || on == cnt {
			bit = on == cnt
		} else {
			for a := uint64(1); (x&2047)*cnt%2048 < 2048%cnt; a++ {
				x = cc.Uint64(a*denseWidth + t)
			}
			bit = (x&2047)*cnt/2048 < on
		}
		flip = x>>11 < thresh
	}
	if bit != flip {
		return 1<<32 | 1
	}
	return 1
}

// TestKeyedTreeResolveReference runs treeResolve and keyedFix over
// hand-built bucket inboxes — a full power-of-two bucket and a tail
// bucket of 1234 slots — and checks every accumulator against
// refTreeSlot. Besides random low-count slots it plants the cases the
// keyed goldens cannot reach: unanimous slots whose base word is a
// Lemire rejection, a mixed slot that retries, counts 2047 and 2048, a
// unanimous deferred slot, and a counter saturated at 65535 with a spill
// tail. The inbox must be all zero afterwards.
func TestKeyedTreeResolveReference(t *testing.T) {
	thresh := channel.FlipThreshold53(0.2)
	key := rng.NewKey(77)
	r := rng.New(5)
	for j, bsize := range []int{denseWidth, 1234} {
		blo := (3 + j) * denseWidth
		cc := key.Cell(rng.StreamCollision, 9).Sub(uint64(j))
		inbox := make([]uint32, bsize)
		for i := range inbox {
			if r.Intn(3) == 0 {
				continue
			}
			cnt := 1 + r.Intn(6)
			inbox[i] = uint32(r.Intn(cnt+1))<<16 | uint32(cnt)
		}

		// Planted slots: a draw is a genuine rejection for 1025 arrivals
		// when (u·1025) mod 2048 < 2048 mod 1025 = 1023.
		used := map[int]bool{}
		pick := func(rejecting bool) int {
			for i := 0; i < bsize; i++ {
				x := cc.Uint64(uint64(i))
				if !used[i] && ((x&2047)*1025%2048 < 1023) == rejecting {
					used[i] = true
					return i
				}
			}
			t.Fatal("no slot with the wanted draw")
			return 0
		}
		word := func(cnt, on int) uint32 { return uint32(on)<<16 | uint32(cnt) }
		planted := []struct {
			name string
			slot int
			w    uint32
		}{
			{"empty", pick(false), 0},
			{"single zero", pick(false), word(1, 0)},
			{"single one", pick(true), word(1, 1)},
			{"unanimous zero, rejection draw", pick(true), word(1025, 0)},
			{"unanimous one, rejection draw", pick(true), word(1025, 1025)},
			{"mixed, retry", pick(true), word(1025, 400)},
			{"mixed, no retry", pick(false), word(1025, 400)},
			{"cnt 2047", pick(false), word(2047, 1000)},
			{"cnt 2048", pick(false), word(2048, 1000)},
			{"deferred unanimous", pick(false), word(3000, 3000)},
			{"saturated", pick(false), word(0xffff, 30000)},
		}
		sat := planted[len(planted)-1].slot
		for _, p := range planted {
			inbox[p.slot] = p.w
		}

		want := make([]uint64, bsize)
		occupied := int64(0)
		for i, v := range inbox {
			cnt, on := uint64(v&0xffff), uint64(v>>16)
			if i == sat {
				cnt, on = cnt+7, on+3
			}
			want[i] = refTreeSlot(cc, uint64(i), cnt, on, thresh)
			occupied += int64(b2u(v != 0))
		}

		e := &Engine{keyed: &keyedState{accs: make([]uint64, blo+bsize), noiseThresh: thresh}}
		d := &denseRun{spill: []denseSpill{{slot: int32(blo + sat), count: 7, ones: 3}}}
		rbuf := make([]uint64, bsize)
		cc.Fill(rbuf, 0)
		acc := e.keyed.accs[blo:]
		fix := d.fixBuf()
		nf, accepted := treeResolve(inbox, rbuf, acc, fix, thresh)
		e.keyedFix(d, cc, blo, inbox, acc, fix[:nf])

		if accepted != occupied {
			t.Errorf("bucket %d: accepted %d, want %d occupied slots", j, accepted, occupied)
		}
		for _, p := range planted {
			if acc[p.slot] != want[p.slot] {
				t.Errorf("bucket %d, %s (slot %d): acc %#x, want %#x", j, p.name, p.slot, acc[p.slot], want[p.slot])
			}
		}
		for i := range want {
			if acc[i] != want[i] {
				t.Fatalf("bucket %d slot %d (word %#x): acc %#x, want %#x", j, i, inbox[i], acc[i], want[i])
			}
		}
		for i, v := range inbox {
			if v != 0 {
				t.Fatalf("bucket %d: slot %d left %#x in the inbox", j, i, v)
			}
		}
	}
}

// treeInboxClean reports the first non-zero tree inbox word, or −1.
func treeInboxClean(e *Engine) int {
	for i, v := range e.keyed.treeInbox {
		if v != 0 {
			return i
		}
	}
	return -1
}

// TestKeyedTreeInboxZeroAfterRun pins the tree inbox's invariant: every
// tree and walker round leaves it all zero — serial and sharded trees,
// crashed receivers, the walker compacting a crash-thinned population,
// and a population with a tail bucket that is not a power of two.
func TestKeyedTreeInboxZeroAfterRun(t *testing.T) {
	const n = 1 << 16
	base := Config{
		N: n, Channel: channel.FromEpsilon(0.3), Seed: 3,
		AllowSelfMessages: true,
	}
	thinned := NewRandomCrashes(n, 0.95, 0, rng.NewKey(3), 0)
	for _, c := range []struct {
		name  string
		mut   func(*Config)
		proto func() Protocol
		paths func(PathRounds) int64
	}{
		{"dense", func(c *Config) { c.N = 2 * denseWidth },
			func() Protocol { return &bulkChatter{rounds: 4} },
			func(p PathRounds) int64 { return p.Dense }},
		{"shards-2", func(c *Config) { c.Shards = 2 },
			func() Protocol { return &bulkChatter{rounds: 4} },
			func(p PathRounds) int64 { return p.Sharded }},
		{"crash-0.1", func(c *Config) { c.Failures = NewRandomCrashes(n, 0.1, 1, rng.NewKey(3), 0) },
			func() Protocol { return &bulkChatter{rounds: 4} },
			func(p PathRounds) int64 { return p.Sharded }},
		{"sparse-crash-0.95", func(c *Config) { c.Failures = thinned },
			func() Protocol { return &sparseChatter{rounds: 4, k: sparseTestK, avoid: thinned} },
			func(p PathRounds) int64 { return p.Sparse }},
		{"tail-bucket", func(c *Config) { c.N = 4*denseWidth + 1234 },
			func() Protocol { return &bulkChatter{rounds: 4} },
			func(p PathRounds) int64 { return p.Sharded }},
	} {
		cfg := base
		c.mut(&cfg)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := e.Run(c.proto())
		if got := c.paths(res.Paths); got != int64(res.Rounds) {
			t.Fatalf("%s: %d of %d rounds in the intended regime: %+v", c.name, got, res.Rounds, res.Paths)
		}
		if i := treeInboxClean(e); i >= 0 {
			t.Errorf("%s: tree inbox slot %d = %#x after Run", c.name, i, e.keyed.treeInbox[i])
		}
		if e.keyed.treeOpen {
			t.Errorf("%s: tree round still marked open after Run", c.name)
		}
	}
}

// shortAccs hands the engine its protocol's accumulator array one slot
// short of n. The tree's and the walker's last bucket then panic when they
// slice their accumulators, after placing their arrivals in the inbox: a
// protocol that unwinds a run mid-round with the tree inbox open.
type shortAccs struct{ BulkProtocol }

func (s shortAccs) BulkAccumulators() []uint64 {
	acc := s.BulkProtocol.BulkAccumulators()
	return acc[: len(acc)-1 : len(acc)-1]
}

// shortIndexed is shortAccs for a protocol that declares its active set,
// so its rounds stay in the sparse regime.
type shortIndexed struct {
	shortAccs
	SenderIndex
}

// TestKeyedTreeResetAfterUnwind pins Reset's contract for a pooled
// engine whose last run unwound mid-round with arrivals in the tree
// inbox — once in the serial tree, once in the walker, each in its last
// bucket after placement: the next run on the Reset engine, with another
// seed, is identical to a fresh engine's.
func TestKeyedTreeResetAfterUnwind(t *testing.T) {
	const n = 1 << 17
	plan := NewRandomCrashes(n, 0.1, 0, rng.NewKey(5), 0)
	for _, c := range []struct {
		name  string
		proto func() BulkProtocol
		short func(BulkProtocol) Protocol
	}{
		{"tree", func() BulkProtocol { return &bulkChatter{rounds: 5} },
			func(p BulkProtocol) Protocol { return shortAccs{p} }},
		{"walker", func() BulkProtocol { return &sparseChatter{rounds: 5, k: 2000} },
			func(p BulkProtocol) Protocol { return shortIndexed{shortAccs{p}, p.(SenderIndex)} }},
	} {
		cfg := Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 5, Shards: 1,
			AllowSelfMessages: true, Failures: plan,
		}
		run := func(e *Engine) (Result, []uint64) {
			p := c.proto()
			res := e.Run(p)
			if res.Paths.Dense+res.Paths.Sharded+res.Paths.Sparse != int64(res.Rounds) {
				t.Fatalf("%s: expected only tree rounds, got %+v", c.name, res.Paths)
			}
			return res, p.BulkAccumulators()
		}
		ef, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantAcc := run(ef)

		// The unwound run is another job's: its arrivals are placed by a
		// different seed, so none of them can pass for the next run's.
		other := cfg
		other.Seed = 6
		e, err := NewEngine(other)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: the short accumulators did not unwind the run", c.name)
				}
			}()
			e.Run(c.short(c.proto()))
		}()
		if !e.keyed.treeOpen || treeInboxClean(e) < 0 {
			t.Fatalf("%s: the run unwound outside a tree round with arrivals", c.name)
		}

		e.Reset(cfg.Seed)
		gotRes, gotAcc := run(e)
		if gotRes != wantRes {
			t.Fatalf("%s: Reset engine diverged:\n got %+v\nwant %+v", c.name, gotRes, wantRes)
		}
		for a := range wantAcc {
			if gotAcc[a] != wantAcc[a] {
				t.Fatalf("%s: acc[%d] = %#x, fresh engine %#x", c.name, a, gotAcc[a], wantAcc[a])
			}
		}
	}
}
