package breathe

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"breathe/internal/async"
	"breathe/internal/baseline"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

var updateRegimes = flag.Bool("update-regimes", false, "rewrite testdata/regimes.golden and README.md's regime matrix")

// The README carries the golden table between these markers.
const (
	regimesBegin = "<!-- regimes.golden: begin -->\n"
	regimesEnd   = "<!-- regimes.golden: end -->\n"
)

// regimeRow is one configuration of the regime matrix.
type regimeRow struct {
	name  string
	cfg   sim.Config
	proto func(t *testing.T) sim.Protocol
}

func regimeBroadcast(n int, v core.Variant) func(t *testing.T) sim.Protocol {
	return func(t *testing.T) sim.Protocol {
		p, err := core.NewBroadcastVariant(core.DefaultParams(n, 0.3), channel.One, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func regimeRows() []regimeRow {
	const n = 4096
	params := core.DefaultParams(n, 0.3)
	bsc := channel.FromEpsilon(0.3)
	logN := int(math.Ceil(math.Log2(n)))
	broadcast := regimeBroadcast(n, core.Variant{})
	selfSync := func(t *testing.T) sim.Protocol {
		p, err := async.NewSelfSync(params, channel.One, 3*logN)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []regimeRow{
		{"broadcast, n = 2¹⁵ (sharded tree)", sim.Config{N: 1 << 15, Channel: bsc, AllowSelfMessages: true},
			regimeBroadcast(1<<15, core.Variant{})},
		{"broadcast (dense tree)", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true}, broadcast},
		{"broadcast, Stage I only (scatter: under 256 messages a round)", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true, MaxRounds: params.StageIRounds()}, broadcast},
		{"broadcast, no self-messages (scatter)", sim.Config{N: n, Channel: bsc}, broadcast},
		{"broadcast, 5% drops", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true, DropProb: 0.05}, broadcast},
		{"broadcast, 10% crashed", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true,
			Failures: sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(1), 0)}, broadcast},
		{"broadcast, 96% crashed, n = 2¹⁵ (sparse)", sim.Config{N: 1 << 15, Channel: bsc, AllowSelfMessages: true,
			Failures: sim.NewRandomCrashes(1<<15, 0.96, 0, rng.NewKey(1), 0)}, regimeBroadcast(1<<15, core.Variant{})},
		{"consensus (Stage I on the tree)", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true}, func(t *testing.T) sim.Protocol {
			sizeA := 4 * params.BetaS
			p, err := core.NewConsensus(params, channel.One, sizeA*3/4, sizeA-sizeA*3/4)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"async known offsets (§3.1)", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true}, func(t *testing.T) sim.Protocol {
			p, err := async.NewKnownOffsets(params, channel.One, 2*logN)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"async self-sync, n = 2¹⁴ (Stage I on the walker)", sim.Config{N: 1 << 14, Channel: bsc, AllowSelfMessages: true},
			func(t *testing.T) sim.Protocol {
				p, err := async.NewSelfSync(core.DefaultParams(1<<14, 0.3), channel.One, async.DefaultPrelude(1<<14))
				if err != nil {
					t.Fatal(err)
				}
				return p
			}},
		{"async self-sync (§3.2), 10% crashed", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true,
			Failures: sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(1), 0)}, selfSync},
		{"async self-sync, no self-messages, 10% crashed (scatter)", sim.Config{N: n, Channel: bsc,
			Failures: sim.NewRandomCrashes(n, 0.1, 0, rng.NewKey(1), 0)}, selfSync},
		{"NoBreathe ablation", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true},
			regimeBroadcast(n, core.Variant{NoBreathe: true})},
		{"immediate-forward baseline", sim.Config{N: n, Channel: bsc, AllowSelfMessages: true},
			func(*testing.T) sim.Protocol { return &baseline.ImmediateForward{Target: channel.One, Rounds: 40} }},
	}
}

// regimeTable runs every row at seed 1 and renders the Markdown table of
// the regimes each one ran.
func regimeTable(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("| Configuration (n = 4096, ε = 0.3 unless stated) | Rounds per regime |\n| --- | --- |\n")
	for _, row := range regimeRows() {
		cfg := row.cfg
		cfg.Seed = 1
		res, err := sim.Run(cfg, row.proto(t))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		fmt.Fprintf(&b, "| %s | %s |\n", row.name, res.Paths)
	}
	return b.Bytes()
}

// TestRegimeMatrix regenerates the regime matrix — which sampling regimes
// each named configuration runs, as its Result's path counters — and
// fails if testdata/regimes.golden or README.md's copy of it differs.
// Rewrite both with
//
//	go test -run TestRegimeMatrix -update-regimes .
func TestRegimeMatrix(t *testing.T) {
	got := regimeTable(t)
	const golden = "testdata/regimes.golden"
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(readme, []byte(regimesBegin))
	j := bytes.Index(readme, []byte(regimesEnd))
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %q … %q markers", regimesBegin, regimesEnd)
	}
	i += len(regimesBegin)
	if *updateRegimes {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		updated := append(append(append([]byte{}, readme[:i]...), got...), readme[j:]...)
		if err := os.WriteFile("README.md", updated, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("regime matrix drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
	if !bytes.Equal(readme[i:j], want) {
		t.Errorf("README.md's regime matrix differs from %s", golden)
	}
}
