// Package sweep is the declarative grid engine behind cmd/sweep: a sweep
// is a cross-product over api.RunRequest fields — protocol × population ×
// ε × crash probability × seed — compiled into per-cell canonical
// requests, executed through any Runner (the local service engine pool or
// remote breathed instances), and aggregated into the paper's tables.
//
// Everything rides on the content addresses the api package already
// defines: every run of a sweep is an api.RunRequest, keyed by its
// canonical config hash, so completed work is recognizable wherever it
// completed — the service result cache, a breathed instance's cache, or a
// checkpoint file from an interrupted sweep. Resuming a sweep therefore
// recomputes nothing that already finished: checkpointed runs are served
// from the file, and the aggregation is a pure function of the per-run
// responses, so an interrupted-then-resumed sweep's output is
// byte-identical to an uninterrupted one.
package sweep

import (
	"fmt"
	"strconv"

	"breathe/internal/api"
)

// Spec declares a sweep: the grid axes plus the scenario fields shared by
// every cell. The zero value of an optional field means "default"
// (resolved by Normalize, mirroring api.RunRequest's conventions).
type Spec struct {
	// Protocols is the protocol axis (api.Proto* names). Default
	// [broadcast].
	Protocols []string `json:"protocols,omitempty"`
	// Ns is the population-size axis (required, each >= 2).
	Ns []int `json:"ns"`
	// Epss is the channel-parameter axis, each ε ∈ (0, 0.5]. Default
	// [0.3].
	Epss []float64 `json:"epss,omitempty"`
	// CrashProbs is the crash-probability axis, each in [0, 1). Default
	// [0] (no crashes).
	CrashProbs []float64 `json:"crash_probs,omitempty"`
	// CrashRound is the round crash plans take effect (shared by every
	// crashing cell).
	CrashRound int `json:"crash_round,omitempty"`
	// Seeds is the number of replications per cell; cell runs use seeds
	// BaseSeed .. BaseSeed+Seeds-1. Default 5.
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed is the first seed of every cell.
	BaseSeed uint64 `json:"base_seed"`
	// Kernel names the execution strategy for every cell: "" or "auto",
	// the only one (see api.RunRequest.Kernel).
	Kernel string `json:"kernel,omitempty"`
	// Schedule names the draw schedule for every cell: "" or "keyed",
	// the only one (see api.RunRequest.Schedule).
	Schedule string `json:"schedule,omitempty"`
	// DropProb is the per-message loss probability shared by every cell.
	DropProb float64 `json:"drop_prob,omitempty"`
	// NoSelfMessages switches every cell to the thesis model's
	// self-exclusion convention.
	NoSelfMessages bool `json:"no_self_messages,omitempty"`
	// MaxRounds caps each run (0 = engine default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Shards is the per-run sharded-kernel worker count, a pure
	// performance knob excluded from every hash (see EffectiveShards for
	// the budget split against the sweep's own workers).
	Shards int `json:"shards,omitempty"`
}

// Normalize resolves the spec's defaults in place.
func (s *Spec) Normalize() {
	if len(s.Protocols) == 0 {
		s.Protocols = []string{api.ProtoBroadcast}
	}
	if len(s.Epss) == 0 {
		s.Epss = []float64{0.3}
	}
	if len(s.CrashProbs) == 0 {
		s.CrashProbs = []float64{0}
	}
	if s.Seeds == 0 {
		s.Seeds = 5
	}
}

// Cell is one grid point: the four axis coordinates and the cell's
// compiled requests, one per seed, each normalized and content-addressed
// by its api hash.
type Cell struct {
	Protocol  string
	N         int
	Eps       float64
	CrashProb float64
	// Requests holds the cell's per-seed runs in seed order.
	Requests []api.RunRequest
}

// Key renders the cell's grid coordinates as a stable identifier.
func (c Cell) Key() string {
	return c.Protocol +
		"/n=" + strconv.Itoa(c.N) +
		"/eps=" + strconv.FormatFloat(c.Eps, 'g', -1, 64) +
		"/crash=" + strconv.FormatFloat(c.CrashProb, 'g', -1, 64)
}

// Cells compiles the spec into its grid, protocol-major then n, ε, crash,
// validating every compiled request through the api's strict rules. The
// cell order — like everything else about a sweep — is a pure function of
// the spec, so two runs of the same spec agree on cell indices.
func (s Spec) Cells() ([]Cell, error) {
	s.Normalize()
	if len(s.Ns) == 0 {
		return nil, fmt.Errorf("sweep: no population sizes")
	}
	if s.Seeds < 1 {
		return nil, fmt.Errorf("sweep: %d seeds per cell", s.Seeds)
	}
	var cells []Cell
	for _, proto := range s.Protocols {
		for _, n := range s.Ns {
			for _, eps := range s.Epss {
				for _, crash := range s.CrashProbs {
					cell := Cell{Protocol: proto, N: n, Eps: eps, CrashProb: crash}
					for i := 0; i < s.Seeds; i++ {
						req := api.RunRequest{
							Protocol:       proto,
							N:              n,
							Eps:            eps,
							Seed:           s.BaseSeed + uint64(i),
							MaxRounds:      s.MaxRounds,
							NoSelfMessages: s.NoSelfMessages,
							DropProb:       s.DropProb,
							CrashProb:      crash,
							CrashRound:     s.CrashRound,
							Kernel:         s.Kernel,
							Schedule:       s.Schedule,
							Shards:         s.Shards,
						}
						req.Normalize()
						if err := req.Validate(); err != nil {
							return nil, fmt.Errorf("sweep: cell %s: %w", cell.Key(), err)
						}
						cell.Requests = append(cell.Requests, req)
					}
					cells = append(cells, cell)
				}
			}
		}
	}
	return cells, nil
}

// EffectiveShards divides the machine's core budget between the sweep's
// cell workers and each run's intra-run shard workers. With both knobs on
// auto (0), the old behaviour spawned workers × GOMAXPROCS shard
// goroutines — a workers-fold oversubscription; the budget split instead
// gives each of the `workers` concurrent runs cores/workers shard workers
// (at least one), so total goroutine pressure stays ≈ cores. An explicit
// shards value is respected verbatim: the two knobs still trade off
// freely (many seeds → workers, few huge runs → shards).
func EffectiveShards(workers, shards, cores int) int {
	if shards != 0 {
		return shards
	}
	if workers <= 0 {
		workers = cores
	}
	if per := cores / workers; per > 1 {
		return per
	}
	return 1
}
