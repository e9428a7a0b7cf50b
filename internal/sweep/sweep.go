package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"breathe/internal/api"
	"breathe/internal/trace"
)

// Source classifies where one run's response came from.
type Source int

const (
	// SourceComputed: a kernel executed the run during this sweep.
	SourceComputed Source = iota
	// SourceCache: the runner's content-addressed cache served stored
	// bytes (service result cache or a breathed instance's).
	SourceCache
	// SourceCheckpoint: the run was finished by an earlier, interrupted
	// sweep and served from the checkpoint file.
	SourceCheckpoint
)

// Counters tallies run sources. CacheHits + CheckpointHits is the
// sweep's proof of work avoided: a resumed sweep whose grid already
// completed shows Computed == 0.
type Counters struct {
	Computed       int `json:"computed"`
	CacheHits      int `json:"cache_hits"`
	CheckpointHits int `json:"checkpoint_hits"`
}

func (c *Counters) add(src Source) {
	switch src {
	case SourceCache:
		c.CacheHits++
	case SourceCheckpoint:
		c.CheckpointHits++
	default:
		c.Computed++
	}
}

// CellResult is one grid point's aggregate over its seed replications.
type CellResult struct {
	Protocol  string  `json:"protocol"`
	N         int     `json:"n"`
	Eps       float64 `json:"eps"`
	CrashProb float64 `json:"crash_prob"`
	Seeds     int     `json:"seeds"`

	MeanRounds   float64 `json:"mean_rounds"`
	MaxRounds    int     `json:"max_rounds"`
	MeanMessages float64 `json:"mean_messages"`
	// SuccessRate is the fraction of replications that ended unanimous on
	// the target opinion.
	SuccessRate float64 `json:"success_rate"`
	// MeanStage1Bias averages the responses' Stage I bias telemetry;
	// absent for protocols that record none (the async scenarios).
	MeanStage1Bias *float64 `json:"mean_stage1_bias,omitempty"`

	// Hashes are the cell's per-run content addresses in seed order.
	Hashes []string `json:"hashes"`
	// Digest is a SHA-256 over the concatenated canonical response bytes
	// in seed order — the cell's bit-identity witness: local and remote
	// executions of the same cell must agree on it exactly.
	Digest string `json:"digest"`
}

// Result is a completed (or deliberately interrupted) sweep: per-cell
// aggregates in grid order plus the source counters. It doubles as the
// machine-readable JSON artifact.
type Result struct {
	Spec           Spec         `json:"spec"`
	TotalCells     int          `json:"total_cells"`
	CompletedCells int          `json:"completed_cells"`
	Interrupted    bool         `json:"interrupted,omitempty"`
	Counters       Counters     `json:"counters"`
	Cells          []CellResult `json:"cells"`
}

// Table renders the per-cell aggregates in the trace table formats
// (text / CSV / markdown). The rendering is a pure function of the cell
// responses, so an interrupted-then-resumed sweep emits byte-identical
// output to an uninterrupted one.
func (r *Result) Table() *trace.Table {
	tb := trace.NewTable("scenario sweep",
		"protocol", "n", "eps", "crash", "mean_rounds",
		"max_rounds", "mean_messages", "success_rate", "mean_stage1_bias")
	for _, c := range r.Cells {
		bias := interface{}("")
		if c.MeanStage1Bias != nil {
			bias = *c.MeanStage1Bias
		}
		tb.AddRowValues(c.Protocol, c.N, c.Eps, c.CrashProb, c.MeanRounds,
			c.MaxRounds, c.MeanMessages, c.SuccessRate, bias)
	}
	return tb
}

// Options tunes one Run invocation.
type Options struct {
	// Checkpoint is the path of the JSON checkpoint ("" = none). The file
	// is rewritten atomically every time a cell completes, so an
	// interrupted sweep loses at most the cells still in flight.
	Checkpoint string
	// Resume loads the checkpoint before running; checkpointed runs are
	// served from the file and never recomputed.
	Resume bool
	// Concurrency bounds the runs in flight at once (0 = GOMAXPROCS).
	// With a LocalRunner this should not exceed the service's queue
	// slack; overflow degrades to polite retries, never to failure.
	Concurrency int
	// AbortAfterCells > 0 simulates an interruption deterministically:
	// the sweep executes only the first AbortAfterCells cells, writes the
	// checkpoint and returns a Result marked Interrupted. CI uses it to
	// pin that resume recomputes nothing.
	AbortAfterCells int
	// Progress, when set, is called after each cell completes with the
	// completed/total counts and the cell's own source tally.
	Progress func(completed, total int, cell Cell, sources Counters)
}

// slot is one run's landed response.
type slot struct {
	resp *api.RunResponse
	raw  []byte
	src  Source
}

// Run executes the spec's grid through runner. Cells complete in
// arbitrary order (runs fan out over Concurrency workers) but the
// returned aggregates are in grid order and deterministic: every run is
// bit-reproducible, so where it executed — this process, a remote
// breathed, a previous interrupted sweep — cannot change a byte of the
// output.
func Run(spec Spec, runner Runner, opts Options) (*Result, error) {
	if runner == nil {
		return nil, fmt.Errorf("sweep: nil runner")
	}
	spec.Normalize()
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	ckpt := map[string]json.RawMessage{}
	if opts.Checkpoint != "" {
		// Load an existing file even without Resume: the saves below
		// rewrite the whole file, and a rerun that forgot -resume must
		// extend a prior interrupted sweep's checkpoint, not clobber its
		// completed work on the first cell save. Entries are
		// content-addressed and every run is bit-reproducible, so merging
		// is always safe. Without Resume the preloaded entries are only
		// preserved, never served — this sweep recomputes its whole grid.
		if ckpt, err = loadCheckpoint(opts.Checkpoint); err != nil {
			return nil, err
		}
	}
	lookup := ckpt
	if !opts.Resume {
		lookup = map[string]json.RawMessage{}
	}

	total := len(cells)
	limit := total
	interrupted := false
	if opts.AbortAfterCells > 0 && opts.AbortAfterCells < total {
		limit = opts.AbortAfterCells
		interrupted = true
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}

	type task struct{ ci, si int }
	hasCkpt := opts.Checkpoint != ""
	var (
		tasks   = make(chan task)
		slots   = make([][]slot, limit)
		remain  = make([]int, limit) // runs outstanding per cell
		mu      sync.Mutex           // guards remain, ckpt, lookup, done, counted, firstErr
		wg      sync.WaitGroup
		counted Counters
		done    int
		firstE  error

		saveMu   sync.Mutex // orders checkpoint writes and progress reports
		savedVer int
	)
	for ci := 0; ci < limit; ci++ {
		slots[ci] = make([]slot, len(cells[ci].Requests))
		remain[ci] = len(cells[ci].Requests)
	}

	// land records one finished run and — when it was the cell's last —
	// checkpoints the cell and reports progress. Only the bookkeeping
	// happens under mu; the checkpoint marshal and file write work on a
	// snapshot outside it, so a large grid's workers never stall behind
	// disk I/O. saveMu serializes the writes and the version check drops
	// a stale snapshot when a later cell completion wins the race to the
	// file (its snapshot is a superset).
	land := func(ci, si int, s slot) error {
		mu.Lock()
		slots[ci][si] = s
		counted.add(s.src)
		remain[ci]--
		if remain[ci] > 0 {
			mu.Unlock()
			return nil
		}
		var cellSources Counters
		var snapshot map[string]json.RawMessage
		for i, sl := range slots[ci] {
			cellSources.add(sl.src)
			if hasCkpt {
				h := cells[ci].Requests[i].Hash()
				ckpt[h] = sl.raw
				if !opts.Resume {
					lookup[h] = sl.raw // same-sweep duplicates stay serveable
				}
			}
		}
		done++
		ver := done
		if hasCkpt {
			snapshot = make(map[string]json.RawMessage, len(ckpt))
			for k, v := range ckpt { //breathe:order-ok map-to-map copy is order-free
				snapshot[k] = v
			}
		}
		mu.Unlock()

		saveMu.Lock()
		defer saveMu.Unlock()
		if snapshot != nil && ver > savedVer {
			if err := saveCheckpoint(opts.Checkpoint, snapshot); err != nil {
				return err
			}
			savedVer = ver
		}
		if opts.Progress != nil {
			opts.Progress(ver, total, cells[ci], cellSources)
		}
		return nil
	}

	fail := func(err error) {
		mu.Lock()
		if firstE == nil {
			firstE = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstE != nil
	}

	wg.Add(conc)
	for w := 0; w < conc; w++ {
		go func() {
			defer wg.Done()
			for t := range tasks {
				if failed() {
					continue // drain without working; the sweep is dead
				}
				req := cells[t.ci].Requests[t.si]
				hash := req.Hash()
				var (
					raw json.RawMessage
					hit bool
				)
				if hasCkpt {
					// The lookup map also grows during this sweep, so a
					// grid with duplicate cells serves the repeats from
					// the already-persisted entries.
					mu.Lock()
					raw, hit = lookup[hash]
					mu.Unlock()
				}
				var s slot
				if hit {
					var resp api.RunResponse
					if err := json.Unmarshal(raw, &resp); err != nil {
						fail(fmt.Errorf("sweep: checkpoint entry %s: %w", hash, err))
						continue
					}
					s = slot{resp: &resp, raw: raw, src: SourceCheckpoint}
				} else {
					resp, rawB, cached, err := runner.Run(req)
					if err != nil {
						fail(fmt.Errorf("sweep: cell %s seed %d: %w", cells[t.ci].Key(), req.Seed, err))
						continue
					}
					s = slot{resp: resp, raw: rawB, src: SourceComputed}
					if cached {
						s.src = SourceCache
					}
				}
				if err := land(t.ci, t.si, s); err != nil {
					fail(err)
				}
			}
		}()
	}
	for ci := 0; ci < limit; ci++ {
		for si := range cells[ci].Requests {
			tasks <- task{ci, si}
		}
	}
	close(tasks)
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}

	res := &Result{
		Spec:           spec,
		TotalCells:     total,
		CompletedCells: limit,
		Interrupted:    interrupted,
		Counters:       counted,
	}
	for ci := 0; ci < limit; ci++ {
		res.Cells = append(res.Cells, aggregate(cells[ci], slots[ci]))
	}
	return res, nil
}

// aggregate folds one cell's responses (seed order) into its aggregates.
func aggregate(cell Cell, slots []slot) CellResult {
	out := CellResult{
		Protocol:  cell.Protocol,
		N:         cell.N,
		Eps:       cell.Eps,
		CrashProb: cell.CrashProb,
		Seeds:     len(slots),
	}
	digest := sha256.New()
	var rounds, msgs, bias float64
	biasN, success := 0, 0
	for _, s := range slots {
		rounds += float64(s.resp.Rounds)
		if s.resp.Rounds > out.MaxRounds {
			out.MaxRounds = s.resp.Rounds
		}
		msgs += float64(s.resp.MessagesSent)
		if s.resp.Unanimous {
			success++
		}
		if s.resp.Stage1Bias != nil {
			bias += *s.resp.Stage1Bias
			biasN++
		}
		out.Hashes = append(out.Hashes, s.resp.Hash)
		digest.Write(s.raw)
	}
	n := float64(len(slots))
	out.MeanRounds = rounds / n
	out.MeanMessages = msgs / n
	out.SuccessRate = float64(success) / n
	if biasN > 0 {
		m := bias / float64(biasN)
		out.MeanStage1Bias = &m
	}
	out.Digest = hex.EncodeToString(digest.Sum(nil))
	return out
}
