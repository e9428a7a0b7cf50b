package sim

import (
	"slices"
	"testing"

	"breathe/internal/channel"
	"breathe/internal/rng"
)

// TestKeyedPlaceFastMatchesUint32n pins the inlined placement draw: whenever
// placeFast does not bail out it returns exactly Cell.Uint32n's value,
// over many cells, indices and bounds — including bounds whose Lemire
// rejection zone is large, where bail-outs are frequent.
func TestKeyedPlaceFastMatchesUint32n(t *testing.T) {
	key := rng.NewKey(11)
	for _, n := range []uint32{1, 2, 3, 1000, 100003, 1<<30 + 1, 1<<31 - 1, 1<<32 - 1} {
		bails := 0
		for r := uint64(0); r < 16; r++ {
			c := key.Cell(rng.StreamPlacement, r)
			for i := uint64(0); i < 4096; i++ {
				got, ok := placeFast(c, i, n)
				if !ok {
					bails++
					continue
				}
				if want := c.Uint32n(i, n); got != want {
					t.Fatalf("n=%d cell %d index %d: placeFast %d, Uint32n %d", n, r, i, got, want)
				}
			}
		}
		if n >= 1<<30 && bails == 0 {
			t.Errorf("n=%d: no bail-out in %d draws", n, 16*4096)
		}
	}
}

// TestKeyedAcceptFastMatchesUint64n is the same pin for the accept-one draw.
func TestKeyedAcceptFastMatchesUint64n(t *testing.T) {
	key := rng.NewKey(12)
	for _, n := range []uint64{1, 2, 3, 2049, 1 << 31, 1<<63 + 1, 3 << 62, 1<<64 - 1} {
		bails := 0
		for r := uint64(0); r < 16; r++ {
			c := key.Cell(rng.StreamCollision, r)
			for i := uint64(0); i < 4096; i++ {
				got, ok := acceptFast(c, i, n)
				if !ok {
					bails++
					continue
				}
				if want := c.Uint64n(i, n); got != want {
					t.Fatalf("n=%d cell %d index %d: acceptFast %d, Uint64n %d", n, r, i, got, want)
				}
			}
		}
		if n > 1<<63 && bails == 0 {
			t.Errorf("n=%d: no bail-out in %d draws", n, 16*4096)
		}
	}
}

// TestKeyedScatterPlaceBreakOut runs the scatter placement over cells whose
// sender lists include draws that bail out of the fast path, and compares
// the inbox words and the first-touch order with a reference that takes
// Cell.Uint32n for every sender.
func TestKeyedScatterPlaceBreakOut(t *testing.T) {
	const n = 100003
	senders := make([]int32, n)
	for i := range senders {
		senders[i] = int32(i)
	}
	key := rng.NewKey(13)
	bails := 0
	for _, excl := range []uint32{0, 1} {
		span := uint32(n) - excl
		for r := uint64(0); r < 8; r++ {
			c := key.Cell(rng.StreamPlacement, r) //breathe:stream-ok each test draws from its own key, so the sites never share a root
			for _, s := range senders {
				if _, ok := placeFast(c, uint64(s), span); !ok {
					bails++
				}
			}
			for class, inc := range []uint64{1, 1<<32 | 1} {
				list := senders[class:]
				inbox := make([]uint64, n)
				touched := make([]int32, len(list))
				nt := scatterPlace(inbox, touched, list, 0, c, span, excl, inc)

				refInbox := make([]uint64, n)
				var refTouched []int32
				for _, s := range list {
					dst := c.Uint32n(uint64(s), span)
					if excl == 1 && dst >= uint32(s) {
						dst++
					}
					if refInbox[dst] == 0 {
						refTouched = append(refTouched, int32(dst))
					}
					refInbox[dst] += inc
				}
				if nt != len(refTouched) {
					t.Fatalf("excl=%d cell %d: %d touched, reference %d", excl, r, nt, len(refTouched))
				}
				for i := range refTouched {
					if touched[i] != refTouched[i] {
						t.Fatalf("excl=%d cell %d: touched[%d] = %d, reference %d", excl, r, i, touched[i], refTouched[i])
					}
				}
				for a := range inbox {
					if inbox[a] != refInbox[a] {
						t.Fatalf("excl=%d cell %d: inbox[%d] = %#x, reference %#x", excl, r, a, inbox[a], refInbox[a])
					}
				}
			}
		}
	}
	if bails == 0 {
		t.Fatal("no sender's placement draw bailed out of the fast path")
	}
	t.Logf("%d bail-outs", bails)
}

// panicChannel is a non-uniform channel that applies inner's noise and
// panics on its at-th Transmit call (never when at is 0). The scatter
// resolve calls it with the inbox open, so it unwinds a run mid-round with
// arrivals left behind.
type panicChannel struct {
	inner     channel.Channel
	at, calls int
}

func (c *panicChannel) Transmit(b channel.Bit, r *rng.RNG) channel.Bit {
	c.calls++
	if c.calls == c.at {
		panic("panicChannel: injected failure")
	}
	return c.inner.Transmit(b, r)
}
func (c *panicChannel) FlipProb() float64 { return c.inner.FlipProb() }
func (c *panicChannel) Name() string      { return "panic(" + c.inner.Name() + ")" }

// TestKeyedScatterResetAfterUnwind pins Reset's contract for a pooled
// engine whose last run unwound inside a scatter round, after placement
// and before the resolve had cleared the inbox: the next run on the Reset
// engine is identical to a fresh engine's.
func TestKeyedScatterResetAfterUnwind(t *testing.T) {
	const n = 4096
	cfg := Config{
		N: n, Seed: 5,
		Failures: NewRandomCrashes(n, 0.1, 0, rng.NewKey(5), 0),
	}
	run := func(e *Engine) (Result, []uint64) {
		p := &bulkChatter{rounds: 6}
		res := e.Run(p)
		if res.Paths.PerMessage != 6 {
			t.Fatalf("expected 6 scatter rounds, got %+v", res.Paths)
		}
		return res, p.acc
	}

	fresh := cfg
	fresh.Channel = &panicChannel{inner: channel.FromEpsilon(0.3)}
	ef, err := NewEngine(fresh)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantAcc := run(ef)

	// One Transmit per accepted message: the run unwinds half-way through
	// its receivers, inside a round's resolve.
	pooled := cfg
	pooled.Channel = &panicChannel{inner: channel.FromEpsilon(0.3), at: int(wantRes.MessagesAccepted / 2)}
	e, err := NewEngine(pooled)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected failure did not unwind the run")
			}
		}()
		e.Run(&bulkChatter{rounds: 6})
	}()
	if !e.keyed.inboxOpen || !slices.ContainsFunc(e.keyed.inbox, func(v uint64) bool { return v != 0 }) {
		t.Fatal("the run unwound outside an open scatter round with arrivals")
	}

	// The channel has passed its panicking call, so the rerun completes.
	e.Reset(cfg.Seed)
	gotRes, gotAcc := run(e)
	if gotRes != wantRes {
		t.Fatalf("Reset engine diverged:\n got %+v\nwant %+v", gotRes, wantRes)
	}
	for a := range wantAcc {
		if gotAcc[a] != wantAcc[a] {
			t.Fatalf("acc[%d] = %#x, fresh engine %#x", a, gotAcc[a], wantAcc[a])
		}
	}
}
