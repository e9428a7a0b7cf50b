// Package bench defines the experiment suite that reproduces every
// quantitative claim of the paper (see README's "Reproducing the paper's claims").
//
// The paper is theoretical — its "tables and figures" are theorems,
// lemmas and claims. Each experiment E1..E18 regenerates one of them as a
// table plus automated shape checks (scaling exponents, envelope
// containment, who-wins comparisons). cmd/experiments renders the tables;
// bench_test.go exposes one testing.B benchmark per experiment.
package bench

import (
	"fmt"
	"io"
	"sort"

	"breathe/internal/api"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/sim"
	"breathe/internal/stats"
	"breathe/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Seeds is the number of independent runs per configuration
	// (default 5).
	Seeds int
	// Quick shrinks population sizes and sweeps for use in unit tests
	// and benchmarks; the full-size defaults are meant for
	// cmd/experiments.
	Quick bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 3
	}
	return 5
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Check is one automated shape assertion.
type Check struct {
	// Name describes the asserted property.
	Name string
	// Pass reports whether the measured data satisfied it.
	Pass bool
	// Detail carries the measured numbers behind the verdict.
	Detail string
}

// Report is the output of one experiment.
type Report struct {
	// Tables are the regenerated result tables.
	Tables []*trace.Table
	// Checks are the automated shape assertions.
	Checks []Check
}

// Passed reports whether all checks passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

func (r *Report) addCheck(name string, pass bool, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: detail})
}

// Experiment is one reproducible unit of the suite.
type Experiment struct {
	// ID is the experiment identifier (E1..E12).
	ID string
	// Title summarizes what is measured.
	Title string
	// PaperRef names the theorem/lemma/claim being reproduced.
	PaperRef string
	// Expectation states the shape the paper predicts.
	Expectation string
	// Run executes the experiment.
	Run func(Options) (*Report, error)
}

// All returns the full suite in order.
func All() []*Experiment {
	return []*Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(), e12(),
		e13(), e14(), e15(), e16(), e17(), e18(),
	}
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// IDs lists all experiment IDs in order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// WriteReport renders a report's tables and checks to w.
func WriteReport(w io.Writer, e *Experiment, r *Report) error {
	if _, err := fmt.Fprintf(w, "== %s: %s (%s)\n   expectation: %s\n\n",
		e.ID, e.Title, e.PaperRef, e.Expectation); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "  [%s] %s — %s\n", status, c.Name, c.Detail); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// pick returns the quick or full variant of a sweep.
func pick[T any](o Options, quick, full []T) []T {
	if o.Quick {
		return quick
	}
	return full
}

// median of a float slice (copies input).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// replica is one seed's execution of an experiment cell.
type replica[P sim.Protocol] struct {
	// cfg is the engine configuration the run executed under.
	cfg sim.Config
	res sim.Result
	// proto is the protocol instance that ran, for its telemetry.
	proto P
}

// replicate runs req once per seed req.Seed, req.Seed+1, …,
// req.Seed+seeds−1 and hands each replica to visit, in seed order. A nil
// newProto runs req's named protocol, built by api.RunRequest.Build.
// Otherwise newProto builds each seed's protocol, which runs under
// req.EngineConfig(); newProto receives that configuration and may
// override its channel (E12 runs flip probabilities below the worst case).
func replicate[P sim.Protocol](req api.RunRequest, seeds int, newProto func(cfg *sim.Config) (P, error), visit func(replica[P])) error {
	first := req.Seed
	for i := 0; i < seeds; i++ {
		req.Seed = first + uint64(i)
		var r replica[P]
		if newProto == nil {
			run, err := req.Build()
			if err != nil {
				return err
			}
			proto := run.NewProtocol()
			p, ok := proto.(P)
			if !ok {
				return fmt.Errorf("bench: unexpected %T for protocol %q", proto, req.Protocol)
			}
			r.cfg, r.proto = run.Config, p
		} else {
			cfg, err := req.EngineConfig()
			if err != nil {
				return err
			}
			if r.proto, err = newProto(&cfg); err != nil {
				return err
			}
			r.cfg = cfg
		}
		var err error
		if r.res, err = sim.Run(r.cfg, r.proto); err != nil {
			return err
		}
		visit(r)
	}
	return nil
}

// request is an experiment cell's run at (n, ε): the thesis model's
// self-exclusion convention, every other field at api's default.
func request(n int, eps float64) api.RunRequest {
	return api.RunRequest{N: n, Eps: eps, NoSelfMessages: true}
}

// broadcastOf builds the broadcast variant v on params, target One, for
// replicate; the zero Variant is the paper's broadcast.
func broadcastOf(params core.Params, v core.Variant) func(*sim.Config) (*core.Protocol, error) {
	return func(*sim.Config) (*core.Protocol, error) { return core.NewBroadcastVariant(params, channel.One, v) }
}

// tally accumulates the results of an experiment cell's replicas.
type tally struct {
	// unanimous counts runs that ended with every agent on One; wrong
	// counts runs whose majority ended on Zero.
	unanimous, wrong int
	// rounds is the last run's round count: a fixed-schedule protocol
	// runs the same count at every seed.
	rounds   int
	messages stats.Running
	// bias is the final bias toward One, fraction the final fraction on
	// One.
	bias, fraction stats.Running
}

func (t *tally) add(res sim.Result) {
	if res.AllCorrect(channel.One) {
		t.unanimous++
	}
	if res.Opinions[channel.Zero] > res.Opinions[channel.One] {
		t.wrong++
	}
	t.rounds = res.Rounds
	t.messages.Add(float64(res.MessagesSent))
	t.bias.Add(res.Bias(channel.One))
	t.fraction.Add(res.CorrectFraction(channel.One))
}

// runs is the number of tallied runs.
func (t *tally) runs() int { return t.messages.N() }

// rate is the fraction of tallied runs that ended unanimous.
func (t *tally) rate() float64 { return float64(t.unanimous) / float64(t.runs()) }

// tallyRuns replicates req's named protocol over seeds and tallies the
// results.
func tallyRuns(req api.RunRequest, seeds int) (*tally, error) {
	t := &tally{}
	err := replicate(req, seeds, nil, func(r replica[sim.Protocol]) { t.add(r.res) })
	return t, err
}
