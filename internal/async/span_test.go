package async

import (
	"testing"

	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
)

// bruteNextActive recomputes NextActive(g) from first principles: scan
// rounds upward from g and stop at the first that can act — some offset
// class inside the activation prelude or a phase window (the predicate
// BulkSenders and Send apply), or a round EndRound would finalize a
// phase at (recomputed from EndRound's own attribution arithmetic, not
// via finalizeRound), or the Done flip at totalRounds.
func bruteNextActive(p *Protocol, g int) int {
	for t := g; t < p.totalRounds; t++ {
		if k := p.phaseOfGlobal(t); k >= 0 {
			windowEnd := p.totalRounds - 1
			if k+1 < len(p.phases) {
				windowEnd = p.phases[k+1].localStart + p.sigma - 1
			}
			if t == windowEnd {
				return t
			}
		}
		for ci := range p.classes {
			l := t + p.classes[ci].base
			if p.mode == ModeSelfSync && l >= -2*p.preludeLen && l < -p.preludeLen {
				return t
			}
			if p.phaseOfLocal(l) >= 0 {
				return t
			}
		}
	}
	return p.totalRounds
}

// TestNextActiveMatchesBruteForce drives both async modes through full
// keyed executions and, at every round barrier, checks the span oracle
// against the brute-force scan — on the live class set of the moment,
// which for self-sync grows as agents make first contact. The observer
// disables skipping (no ObserverEvery declaration), so every round of
// the reference execution is checked.
func TestNextActiveMatchesBruteForce(t *testing.T) {
	const n = 512
	params := core.DefaultParams(n, 0.3)
	protos := []struct {
		name  string
		build func() (*Protocol, error)
	}{
		{"known-offsets", func() (*Protocol, error) { return NewKnownOffsets(params, channel.One, 18) }},
		{"selfsync", func() (*Protocol, error) { return NewSelfSync(params, channel.One, 30) }},
	}
	for _, pc := range protos {
		p, err := pc.build()
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		cfg := sim.Config{
			N: n, Channel: channel.FromEpsilon(0.3), Seed: 9,
			AllowSelfMessages: true,
			MaxRounds:         p.TotalRounds() + 4,
			Observer: func(round int, e *sim.Engine) {
				g := round + 1
				got := p.NextActive(g)
				want := bruteNextActive(p, g)
				if got != want {
					t.Fatalf("%s: NextActive(%d) = %d, brute force = %d", pc.name, g, got, want)
				}
				if got < g {
					t.Fatalf("%s: NextActive(%d) = %d went backwards", pc.name, g, got)
				}
				checked++
			},
		}
		if _, err := sim.Run(cfg, p); err != nil {
			t.Fatal(err)
		}
		if checked < p.TotalRounds() {
			t.Fatalf("%s: only %d of %d rounds checked", pc.name, checked, p.TotalRounds())
		}
		// Past the schedule the oracle declines: nothing lies ahead.
		if got := p.NextActive(p.TotalRounds() + 7); got != p.TotalRounds()+7 {
			t.Errorf("%s: NextActive past totalRounds = %d, want identity", pc.name, got)
		}
	}
}

// TestQuietSpanKeyedRunMatchesUnskipped: full engine-level equivalence
// on the async protocols — the skipped run must reproduce the
// round-by-round run's Result exactly, while actually skipping spans.
//
// With the dilation spacing of exactly D, a known-offsets run whose D
// clock bases are all occupied is gap-free (each inter-phase gap is the
// one finalization round), so that case uses D ≫ n: sparse bases leave
// genuine dilation gaps for the spanner to skip. The self-sync prelude
// structure creates gaps at any size.
func TestQuietSpanKeyedRunMatchesUnskipped(t *testing.T) {
	const n = 2048
	params := core.DefaultParams(n, 0.3)
	sparse := core.DefaultParams(512, 0.3)
	for _, pc := range []struct {
		name  string
		n     int
		build func() (sim.Protocol, error)
	}{
		{"known-offsets-sparse", 512, func() (sim.Protocol, error) { return NewKnownOffsets(sparse, channel.One, 4096) }},
		{"selfsync", n, func() (sim.Protocol, error) { return NewSelfSync(params, channel.One, 33) }},
	} {
		results := make([]sim.Result, 2)
		spans := make([]int64, 2)
		for i, noskip := range []bool{false, true} {
			p, err := pc.build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{
				N: pc.n, Channel: channel.FromEpsilon(0.3), Seed: 4,
				AllowSelfMessages: true,
			}
			if noskip {
				// An observer without a declared cadence makes the
				// engine execute every round.
				cfg.Observer = func(int, *sim.Engine) {}
			}
			e, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			results[i] = e.Run(p)
			spans[i] = e.QuietSpans()
		}
		if results[0] != results[1] {
			t.Errorf("%s: skipped run diverged:\n%+v\n%+v", pc.name, results[0], results[1])
		}
		if spans[0] == 0 {
			t.Errorf("%s: skip-enabled run skipped no spans", pc.name)
		}
		if spans[1] != 0 {
			t.Errorf("%s: unskipped run skipped %d spans", pc.name, spans[1])
		}
	}
}
