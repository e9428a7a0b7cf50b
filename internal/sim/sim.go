// Package sim implements the Flip model's execution environment (paper
// §1.3.2): a population of n anonymous agents proceeding in synchronous
// rounds. In every round each agent may either wait or push a single-bit
// message to a uniformly random other agent; a receiver that is targeted
// by several messages accepts exactly one of them, chosen uniformly at
// random, and the rest are dropped; every accepted bit passes through a
// noisy channel.
//
// The model is round-synchronous by definition, so the engine is a
// deterministic round loop. Every draw is addressed by (seed, subsystem
// stream, round, index) — the keyed schedule, see keyed.go — so a run is
// a pure function of (protocol, configuration, seed), whichever kernel,
// worker count or execution order carries it out.
package sim

import (
	"fmt"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// Protocol is a distributed algorithm in the Flip model, expressed as the
// per-agent decision rules the engine queries each round. Implementations
// keep all per-agent state internally; the engine never inspects it.
//
// Symmetry (paper §1.3.4): whether an agent sends in a round must not
// depend on opinion values, only on its activation history — all
// protocols in this repository honour that contract, and tests check it.
type Protocol interface {
	// Name identifies the protocol in traces and tables.
	Name() string
	// Setup is called once before round 0. r is the protocol's private
	// random stream.
	Setup(n int, r *rng.RNG)
	// Send reports whether agent a pushes a message in the given round
	// and, if so, which bit.
	Send(a, round int) (bit channel.Bit, ok bool)
	// Receive notifies the protocol that agent a accepted bit in round.
	// At most one Receive per agent per round, per the model.
	Receive(a int, bit channel.Bit, round int)
	// EndRound is called after all deliveries of round. Phase-boundary
	// opinion updates happen here.
	EndRound(round int)
	// Done reports whether the protocol has terminated before the given
	// round starts; the engine stops without executing it.
	Done(round int) bool
	// Opinion returns agent a's current opinion, with ok=false when the
	// agent holds none yet.
	Opinion(a int) (bit channel.Bit, ok bool)
}

// KeyedProtocol is an optional extension of Protocol: the engine hands
// implementations the run's draw-schedule root before Setup, and they take
// their phase-boundary randomness from addressed cells of the key
// (rng.StreamSchedule, rng.StreamOffsets) instead of consuming the
// sequential stream passed to Setup, so protocol draws are a pure function
// of (seed, round, agent) independent of kernel and execution order.
type KeyedProtocol interface {
	SetDrawKey(k rng.Key)
}

// FailurePlan optionally injects crash faults: a crashed agent neither
// sends nor receives from its crash round on. Used by robustness tests;
// the paper's model itself has no crashes.
//
// Crashed must be safe for concurrent calls with distinct a: the sharded
// kernel's workers query it from their goroutines. Both implementations
// in failures.go precompute their crash set as a packed bitset that is
// read-only once built, so concurrent queries are plain reads and need no
// lock.
type FailurePlan interface {
	// Crashed reports whether agent a is down in the given round.
	Crashed(a, round int) bool
}

// QuietSpanner is an optional Protocol capability that makes quiescence
// free. NextActive(g) returns the first round t >= g at which the
// protocol can act, assuming no message is delivered in [g, t): a round
// in which some agent may send, in which EndRound may change protocol
// state (a phase finalization), or at which Done may flip. Every round in [g, t) must be inert — Send false for
// every agent, EndRound a no-op, Done constant — so the engine may
// account rounds g..t-1 as executed quiet rounds and jump straight to t.
//
// The engine consults the spanner only immediately after a round with
// zero live senders; crashes never create senders, so an implementation
// may (and should) ignore the failure plan. Returning g is always safe: it declines the skip for this span.
type QuietSpanner interface {
	NextActive(g int) int
}

// CrashBoundary is an optional FailurePlan capability: NextCrashChange(g)
// returns the first round >= g at which the plan's crash set changes, or
// -1 when it never changes again. The engine never skips a quiet span
// across a crash boundary, and declines to skip at all when a failure
// plan does not declare its boundaries — an arbitrary Crashed
// implementation could be stateful, and the skip path must not change
// how often it is consulted.
type CrashBoundary interface {
	NextCrashChange(g int) int
}

// Observer is called at the end of every executed round; used for tracing.
type Observer func(round int, e *Engine)

// DefaultMaxRounds is the execution cap a zero Config.MaxRounds means: a
// generous 2²⁰ rounds. Exported so canonicalization layers (internal/api)
// can map "unset" and "explicitly the default" to the same run.
const DefaultMaxRounds = 1 << 20

// Kernel selects the execution strategy of the engine's round loop.
type Kernel int

const (
	// KernelAuto (the default) uses the batched kernel whenever the
	// protocol implements BulkProtocol and the configuration permits it,
	// and the per-agent path otherwise.
	KernelAuto Kernel = iota
	// KernelPerAgent forces per-agent collection and delivery: one Send
	// call per agent per round and one Receive per accepted message. The
	// draws, and so the results, are those of every other kernel. The
	// executable definition of the model is the test-only reference
	// (refRun in internal/sim's tests: reservoir accept-one, one recipient
	// draw and one Transmit per message, on sequential streams), which the
	// regimes are checked against in distribution.
	KernelPerAgent
	// KernelBatched requires the batched kernel; Run panics with a clear
	// message when the protocol or configuration cannot support it. Use
	// it in tests and benchmarks that must not silently fall back.
	KernelBatched
)

// Config assembles a simulation run.
type Config struct {
	// N is the population size (>= 2).
	N int
	// Channel is the noise model applied to every accepted message.
	Channel channel.Channel
	// Seed determines all randomness of the run.
	Seed uint64
	// MaxRounds caps execution; a run that reaches it without the
	// protocol terminating is reported with Truncated = true. Zero means
	// DefaultMaxRounds.
	MaxRounds int
	// AllowSelfMessages selects whether a sender may pick itself as the
	// recipient. The classical push-gossip convention (used here by
	// default) excludes self-delivery; the difference is O(1/n) and no
	// result in the paper depends on it.
	AllowSelfMessages bool
	// DropProb is an optional per-message loss probability applied
	// before recipient selection (weak "message failure" faults from the
	// broadcast literature, cf. paper §1.2). Zero disables.
	DropProb float64
	// Failures optionally injects crash faults.
	Failures FailurePlan
	// Observer, if set, runs after every executed round.
	Observer Observer
	// ObserverEvery declares that the observer only acts on rounds that
	// are multiples of it (the service's trajectory-sampling convention:
	// round % every == 0) and ignores every other round. The declaration
	// lets the engine skip quiet spans between due rounds; a due round is
	// never skipped. Zero (or 1) makes no claim: with an Observer
	// installed the engine then executes every round. Ignored when
	// Observer is nil.
	ObserverEvery int
	// NoQuietSkip disables O(1) quiet-span skipping, forcing every quiet
	// round to execute individually. A pure performance knob for
	// benchmarks and equivalence tests: results are bit-identical either
	// way (quietspan_test.go pins it).
	NoQuietSkip bool
	// Cancel, if non-nil, aborts the run when it becomes readable (closed
	// or sent to): the engine polls it at the per-round barrier — after a
	// round's deliveries and observer, before the next round starts — on
	// every kernel. A canceled run returns a Result with Canceled = true
	// whose counters cover the rounds that did execute. Polling draws
	// nothing from any RNG stream, so the executed prefix is bit-identical
	// to the same prefix of an uncanceled run. Use ctx.Done() to couple a
	// run to a context.
	Cancel <-chan struct{}
	// Kernel selects the round-loop strategy (default KernelAuto). A pure
	// performance knob: every kernel yields byte-identical results.
	Kernel Kernel
	// Telemetry, if non-nil, receives per-phase kernel timings, regime
	// transitions and quiet-span lengths for this run. The probe is
	// byte-inert by construction: it is consulted only at phase boundaries
	// the round loop already has, it draws from no RNG stream (statically
	// proven by breathevet's telemetry analyzer — the telemetry package
	// imports nothing from this module), and nothing it returns feeds back
	// into the run. Results are bit-identical with the probe on or off;
	// internal/api's telemetry identity tests pin that across every kernel.
	Telemetry *telemetry.RunProbe
	// Shards sets the worker-goroutine count of parallel tree rounds: 0
	// means GOMAXPROCS, 1 forces serial execution. Results are
	// bit-identical for every value — every tree bucket's draws are
	// addressed by (round, bucket), so Shards only decides how many
	// goroutines sweep the buckets (see keyed.go). Callers that already
	// parallelize across seeds (RunSeeds) typically set Shards: 1 to avoid
	// oversubscription.
	Shards int
	// SparseCutover steers the sparse walker's executor cutover (see
	// sparse.go): 0 (the default) runs the walker on tree-eligible rounds
	// whose declared active set k satisfies k·64 < n, a positive value
	// substitutes its own ratio (k·c < n), and -1 disables the walker so
	// the dense sweep runs every such round. A pure performance knob like
	// Shards: results are bit-identical for every value, and the sparse
	// *accounting* in Result.Paths always uses the fixed default ratio, so
	// the counters never move either.
	SparseCutover int
}

func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("sim: population size %d < 2", c.N)
	}
	if c.Channel == nil {
		return fmt.Errorf("sim: nil channel")
	}
	if c.DropProb < 0 || c.DropProb >= 1 {
		return fmt.Errorf("sim: drop probability %v outside [0, 1)", c.DropProb)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("sim: negative MaxRounds %d", c.MaxRounds)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: negative Shards %d", c.Shards)
	}
	if c.ObserverEvery < 0 {
		return fmt.Errorf("sim: negative ObserverEvery %d", c.ObserverEvery)
	}
	if c.SparseCutover < -1 {
		return fmt.Errorf("sim: SparseCutover %d < -1 (use -1 to disable the sparse walker)", c.SparseCutover)
	}
	return nil
}

// PathRounds counts a run's executed rounds by the sampling regime that
// ran them (keyed.go). The engine picks the regime round by round — a
// single run routinely mixes them: scatter rounds while few agents send,
// tree rounds at full blast — as a pure function of the round's message
// count, n, the configuration and the protocol's capabilities, never of
// Config.Kernel or any other performance knob. A configuration that
// cannot use the batched machinery at all — a non-bulk protocol, or
// n ≥ 2²⁸ — runs every speaking round as PerAgent scatter; PathRounds
// makes that visible in every Result instead of leaving it to be
// discovered in a profile.
type PathRounds struct {
	// PerAgent counts scatter rounds of a run without batched machinery
	// (a non-bulk protocol, or n ≥ 2²⁸), collected through Send.
	PerAgent int64 `json:"per_agent,omitempty"`
	// Quiet counts rounds with no live senders (the protocol's "breathe"
	// phases): no kernel work at all. Whole quiet spans may be skipped in
	// O(1) (see QuietSpanner); the skipped rounds are credited here
	// exactly as if they had executed.
	Quiet int64 `json:"quiet,omitempty"`
	// PerMessage counts scatter rounds of a bulk-capable run: one
	// placement draw per message, count-based accept-one per receiver.
	PerMessage int64 `json:"per_message,omitempty"`
	// Dense counts tree rounds swept serially.
	Dense int64 `json:"dense,omitempty"`
	// Sharded counts tree rounds large enough (numShards(n) ≥ 2 and at
	// least shardMinMessages messages) to sweep their buckets in parallel.
	Sharded int64 `json:"sharded,omitempty"`
	// Sparse counts tree-eligible rounds whose protocol declared a small
	// active set (SenderIndex with k·64 < n). Like every other counter the
	// accounting is kernel-independent; whether the sparse walker or the
	// dense sweep executed the round is a pure performance choice
	// (Config.SparseCutover) that never moves it.
	Sparse int64 `json:"sparse,omitempty"`
}

// Total returns the number of rounds counted.
func (p PathRounds) Total() int64 {
	return p.PerAgent + p.Quiet + p.PerMessage + p.Dense + p.Sharded + p.Sparse
}

// Primary names the path that executed the most rounds, ignoring Quiet
// rounds (every protocol breathes; the question is what runs when it
// speaks). Returns "per-agent", "per-message", "dense", "sharded",
// "sparse", or "quiet" when no round carried a message.
func (p PathRounds) Primary() string {
	name, best := "quiet", int64(0)
	for _, c := range []struct {
		name string
		n    int64
	}{{"per-agent", p.PerAgent}, {"per-message", p.PerMessage}, {"dense", p.Dense}, {"sharded", p.Sharded}, {"sparse", p.Sparse}} {
		if c.n > best {
			name, best = c.name, c.n
		}
	}
	return name
}

// String renders the non-zero counters compactly, e.g.
// "per-message:420 dense:64 sharded:3218 quiet:96".
func (p PathRounds) String() string {
	s := ""
	for _, c := range []struct {
		name string
		n    int64
	}{{"per-agent", p.PerAgent}, {"per-message", p.PerMessage}, {"dense", p.Dense}, {"sharded", p.Sharded}, {"sparse", p.Sparse}, {"quiet", p.Quiet}} {
		if c.n == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", c.name, c.n)
	}
	if s == "" {
		return "none"
	}
	return s
}

// Result summarizes a completed run.
type Result struct {
	// Protocol is the protocol's Name.
	Protocol string
	// Rounds is the number of executed rounds.
	Rounds int
	// MessagesSent counts every push (equals total bits, messages are
	// one bit).
	MessagesSent int64
	// MessagesAccepted counts deliveries that reached a Receive call.
	MessagesAccepted int64
	// MessagesDropped counts collision losses (and DropProb losses).
	MessagesDropped int64
	// Truncated reports that MaxRounds was reached before Done.
	Truncated bool
	// Canceled reports that Config.Cancel aborted the run at a round
	// barrier before the protocol terminated.
	Canceled bool
	// Paths breaks Rounds down by the kernel path that executed them.
	Paths PathRounds
	// Opinions counts final opinions: Opinions[b] agents hold bit b.
	Opinions [2]int
	// Undecided counts agents with no opinion at the end.
	Undecided int
}

// CorrectFraction returns the fraction of the population holding the
// target opinion.
func (r Result) CorrectFraction(target channel.Bit) float64 {
	total := r.Opinions[0] + r.Opinions[1] + r.Undecided
	if total == 0 {
		return 0
	}
	return float64(r.Opinions[target]) / float64(total)
}

// Bias returns the bias toward target as defined in the paper:
// (fraction correct) − 1/2.
func (r Result) Bias(target channel.Bit) float64 {
	return r.CorrectFraction(target) - 0.5
}

// AllCorrect reports whether every agent decided on the target opinion.
func (r Result) AllCorrect(target channel.Bit) bool {
	total := r.Opinions[0] + r.Opinions[1] + r.Undecided
	return r.Opinions[target] == total
}

// Engine executes protocols under a Config. An engine runs one protocol
// per arming: build one with NewEngine, call Run, read the Result, and
// call Reset(seed) before any further Run. A second Run without Reset
// panics — it would silently reuse stale counters and corrupt the Result.
//
// Observers run after every executed round and may read the engine's
// public accessors (N, Round, MessagesSent) and query the protocol (e.g.
// Opinion). The per-round inboxes are engine-internal scratch, zero
// between rounds, so no per-message state is observable after a round
// ends.
type Engine struct {
	cfg Config

	key      rng.Key     // the run's draw-schedule root
	protoRNG *rng.RNG    // the protocol's sequential stream, seeded from key
	keyed    *keyedState // lazily allocated kernel scratch

	// Quiet-span skipping: the protocol's span oracle, the failure plan's
	// declared boundaries, and the count of spans actually skipped. Armed
	// per run by prepareQuietSkip.
	spanner    QuietSpanner
	crashBound CrashBoundary
	quietSpans int64

	started  bool
	round    int
	sent     int64
	accepted int64
	dropped  int64
	paths    PathRounds
}

// NewEngine validates cfg and prepares an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	e := &Engine{cfg: cfg}
	e.Reset(cfg.Seed)
	return e, nil
}

// Reset re-arms the engine for a fresh run with the given seed, reusing
// every allocated buffer. A Reset engine behaves exactly like a newly
// constructed one with Config.Seed = seed: Run is again a pure function of
// (config, protocol, seed). Reset during a run is not supported.
func (e *Engine) Reset(seed uint64) {
	e.cfg.Seed = seed
	// Every engine-side draw is addressed through e.key; the protocol's
	// sequential stream is seeded from the protocol subsystem stream so it
	// cannot collide with any engine draw.
	e.key = rng.NewKey(seed)
	e.protoRNG = rng.New(e.key.Cell(rng.StreamProtocol, 0).Uint64(0))
	if k := e.keyed; k != nil {
		// The last run unwound mid-round and left arrivals behind.
		if k.inboxOpen {
			clear(k.inbox)
			k.inboxOpen = false
		}
		if k.treeOpen {
			clear(k.treeInbox)
			k.treeOpen = false
		}
	}
	e.started = false
	e.round = 0
	e.sent, e.accepted, e.dropped = 0, 0, 0
	e.paths = PathRounds{}
	e.spanner = nil
	e.crashBound = nil
	e.quietSpans = 0
}

// SetObserver replaces the engine's observer for the next run. Together
// with SetFailures and SetCancel it lets a pooled engine be re-armed per
// job — Reset(seed) then install the job's hooks — instead of paying a
// NewEngine allocation per request. Panics if a run is in progress or
// finished without an intervening Reset, for the same reason Run does:
// swapping hooks mid-run would make the run an impure function of timing.
func (e *Engine) SetObserver(o Observer) {
	if e.started {
		panic("sim: Engine.SetObserver on a started engine — Reset first")
	}
	e.cfg.Observer = o
}

// SetFailures replaces the engine's failure plan for the next run. See
// SetObserver for the pooled-engine use case and the panic condition.
func (e *Engine) SetFailures(f FailurePlan) {
	if e.started {
		panic("sim: Engine.SetFailures on a started engine — Reset first")
	}
	e.cfg.Failures = f
}

// SetObserverEvery replaces the engine's Config.ObserverEvery declaration
// for the next run (see the field doc). Pooled engines must re-arm it per
// job together with SetObserver, so a stale declaration from the previous
// tenant cannot let the engine skip rounds the new observer needs. See
// SetObserver for the panic condition.
func (e *Engine) SetObserverEvery(every int) {
	if e.started {
		panic("sim: Engine.SetObserverEvery on a started engine — Reset first")
	}
	e.cfg.ObserverEvery = every
}

// SetCancel replaces the engine's cancellation channel for the next run.
// See SetObserver for the pooled-engine use case and the panic condition.
func (e *Engine) SetCancel(c <-chan struct{}) {
	if e.started {
		panic("sim: Engine.SetCancel on a started engine — Reset first")
	}
	e.cfg.Cancel = c
}

// SetTelemetry installs (or, with nil, removes) the run probe for the next
// run — the pooled-engine analogue of Config.Telemetry. See SetObserver
// for the re-arming pattern and the panic condition; see the Telemetry
// field doc for the byte-inertness contract.
func (e *Engine) SetTelemetry(t *telemetry.RunProbe) {
	if e.started {
		panic("sim: Engine.SetTelemetry on a started engine — Reset first")
	}
	e.cfg.Telemetry = t
}

// N returns the population size.
func (e *Engine) N() int { return e.cfg.N }

// Round returns the index of the round currently executing (valid inside
// Observer callbacks).
func (e *Engine) Round() int { return e.round }

// MessagesSent returns the running total of pushes.
func (e *Engine) MessagesSent() int64 { return e.sent }

// MessagesAccepted returns the running total of deliveries that reached
// the protocol (valid inside Observer callbacks, for progress reporting).
func (e *Engine) MessagesAccepted() int64 { return e.accepted }

// MessagesDropped returns the running total of collision, crash and
// DropProb losses (valid inside Observer callbacks).
func (e *Engine) MessagesDropped() int64 { return e.dropped }

// Paths returns the per-kernel-path round counts so far (valid inside
// Observer callbacks; the full-run breakdown is in Result.Paths).
func (e *Engine) Paths() PathRounds { return e.paths }

// ShardedRounds reports how many rounds so far executed as parallel tree
// rounds (diagnostics and tests; the count is a pure function of the
// run, independent of Config.Shards).
func (e *Engine) ShardedRounds() int64 { return e.paths.Sharded }

// QuietSpans reports how many quiet spans the run skipped in O(1) (a
// QuietSpanner protocol; see skipQuietSpan). Diagnostics only: the count
// is deliberately not part of Result, because a skipped run and a
// round-by-round run of the same configuration produce identical Results
// — that equivalence is the skip path's contract.
func (e *Engine) QuietSpans() int64 { return e.quietSpans }

// Run executes p until it reports Done or MaxRounds is hit. Calling Run a
// second time without an intervening Reset panics: the engine's counters
// carry state from the finished run.
func (e *Engine) Run(p Protocol) Result {
	if e.started {
		panic("sim: Engine.Run called twice — engines run once per arming; call Reset(seed) to reuse the engine")
	}
	e.started = true

	n := e.cfg.N
	if kp, ok := p.(KeyedProtocol); ok {
		kp.SetDrawKey(e.key)
	}
	p.Setup(n, e.protoRNG)

	bp := e.prepareKeyed(p)
	e.prepareQuietSkip(p)

	res := Result{Protocol: p.Name()}
	canceled := false
	// The run probe, when armed, is driven only from this loop's existing
	// barrier structure (plus the phase marks the kernels place between
	// their internal stages). It observes; it never steers.
	tel := e.cfg.Telemetry
	for e.round = 0; e.round < e.cfg.MaxRounds; e.round++ {
		if p.Done(e.round) {
			break
		}
		// The per-round barrier: previous round fully delivered, observer
		// notified, next round not started. Cancellation is only honoured
		// here — after the Done check, so a cancel that lands when the
		// protocol has already terminated reports the completed run, not a
		// canceled one.
		if e.pollCancel() {
			canceled = true
			break
		}
		var prevPaths PathRounds
		if tel != nil {
			prevPaths = e.paths
			tel.BeginRound(e.round)
		}
		quiet := e.stepKeyed(p, bp)
		if e.cfg.Observer != nil {
			e.cfg.Observer(e.round, e)
		}
		if tel != nil {
			tel.EndRound(e.round, regimeOf(prevPaths, e.paths), e.sent, e.accepted, e.dropped)
		}
		// After a quiet round the span oracle knows the next round that
		// can act; every round in between is inert and is credited in
		// bulk instead of executed. The jump happens after the observer
		// call and before the next barrier, so a cancel that lands inside
		// a skipped span is honoured at the span's end — the next barrier
		// an unskipped run of the same span would also have reached with
		// these counters.
		if quiet && e.spanner != nil {
			next := e.spanner.NextActive(e.round + 1)
			if e.crashBound != nil {
				if c := e.crashBound.NextCrashChange(e.round + 1); c >= 0 && c < next {
					next = c
				}
			}
			// The jump itself stays unprobed (skipQuietSpan is a proven
			// draw-free leaf); the probe records the skipped span by
			// diffing the round cursor across the call.
			from := e.round
			e.skipQuietSpan(next)
			if tel != nil && e.round > from {
				tel.QuietSpan(from+1, e.round+1)
			}
		}
	}
	if tel != nil {
		tel.FinishRun(e.round)
	}
	res.Rounds = e.round
	res.Canceled = canceled
	res.Truncated = !canceled && e.round >= e.cfg.MaxRounds && !p.Done(e.round)
	res.Paths = e.paths
	res.MessagesSent = e.sent
	res.MessagesAccepted = e.accepted
	res.MessagesDropped = e.dropped
	for a := 0; a < n; a++ {
		if b, ok := p.Opinion(a); ok {
			res.Opinions[b]++
		} else {
			res.Undecided++
		}
	}
	return res
}

// pollCancel is the round barrier's non-blocking look at the cancel
// channel. It must touch no RNG stream: that is what makes a canceled
// run's executed prefix bit-identical to an uncanceled run's, and the
// annotation has breathevet prove it over the callgraph.
//
//breathe:drawfree
func (e *Engine) pollCancel() bool {
	if e.cfg.Cancel == nil {
		return false
	}
	select {
	case <-e.cfg.Cancel:
		return true
	default:
		return false
	}
}

// mark bills the time since the previous probe reading to phase ph; a
// no-op (one nil check) when no probe is armed. Kernels call it between
// their internal stages; it must never be called from a function carrying
// //breathe:drawfree — the probe's writer is an interface value, which the
// drawfree analyzer rightly treats as unprovable.
func (e *Engine) mark(ph telemetry.Phase) {
	if t := e.cfg.Telemetry; t != nil {
		t.Mark(ph)
	}
}

// regimeOf names the regime that executed the round just finished, by
// diffing the path counters across the step call.
func regimeOf(before, after PathRounds) telemetry.Regime {
	switch {
	case after.Quiet > before.Quiet:
		return telemetry.RegimeQuiet
	case after.PerMessage > before.PerMessage:
		return telemetry.RegimePerMessage
	case after.Dense > before.Dense:
		return telemetry.RegimeDense
	case after.Sharded > before.Sharded:
		return telemetry.RegimeSharded
	case after.Sparse > before.Sparse:
		return telemetry.RegimeSparse
	default:
		return telemetry.RegimePerAgent
	}
}

// Run is the package-level convenience: build an engine for cfg and run p.
func Run(cfg Config, p Protocol) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(p), nil
}
