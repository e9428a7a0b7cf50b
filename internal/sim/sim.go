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
// a pure function of (protocol, configuration, seed), whichever
// collection mechanism, worker count or execution order carries it out.
package sim

import (
	"fmt"
	"math"

	"breathe/internal/channel"
	"breathe/internal/rng"
	"breathe/internal/telemetry"
)

// Protocol is a distributed algorithm in the Flip model. Implementations
// keep all per-agent state internally; the engine never inspects it.
//
// Send and Receive are the protocol's per-agent decision rules, its
// specification; the engine itself collects and delivers only through the
// bulk methods, whose answers must agree with them: BulkSenders lists
// exactly the agents whose Send reports ok, and BulkDeliver does what one
// Receive per element would. The per-agent rules are exercised through
// the test adapter simtest.PerAgent, which answers the bulk methods with
// Send scans and Receive calls, and the model reference refRun.
//
// Symmetry (paper §1.3.4): whether an agent sends in a round must not
// depend on opinion values, only on its activation history — all
// protocols in this repository honour that contract, and tests check it.
type Protocol interface {
	// Name identifies the protocol in traces and tables.
	Name() string
	// Setup is called once before round 0, and re-arms a protocol value
	// for a fresh run. key is the run's draw-schedule root: a protocol
	// that needs randomness takes it from addressed cells of the key
	// (rng.StreamSchedule, rng.StreamOffsets), so its draws are a pure
	// function of (seed, round, agent), independent of kernel and
	// execution order.
	Setup(n int, key rng.Key)
	// Send reports whether agent a pushes a message in the given round
	// and, if so, which bit.
	Send(a, round int) (bit channel.Bit, ok bool)
	// Receive notifies the protocol that agent a accepted bit in round.
	// At most one Receive per agent per round, per the model.
	Receive(a int, bit channel.Bit, round int)
	// BulkSenders returns the agents that transmit in round, grouped by
	// the bit they send, crashed agents included (the engine filters
	// them). The slices are owned by the protocol and valid until the next
	// BulkSenders call; the engine does not mutate them.
	BulkSenders(round int) (zeros, ones []int32)
	// BulkDeliver notifies the protocol of all accepted deliveries of the
	// round: receivers[i] accepted bits[i].
	BulkDeliver(receivers []int32, bits []channel.Bit, round int)
	// BulkAccumulate reports whether, in the given round, a delivery is
	// equivalent to acc[receiver] += bit<<32 | 1 on the array returned by
	// BulkAccumulators — i.e. reception is pure counting with no
	// per-message side effects, or with only side effects that EndRound
	// can recover from the round's counts. The tree regime requires it.
	BulkAccumulate(round int) bool
	// BulkAccumulators exposes the per-agent packed reception counters
	// (ones in the high 32 bits, total in the low 32), or nil for a
	// protocol whose reception is never pure counting; the engine then
	// always delivers through BulkDeliver. In parallel tree rounds the
	// engine's workers write disjoint bucket ranges of the array
	// concurrently (agent a is only ever touched by the worker resolving
	// a's bucket), so no protocol synchronization is needed.
	BulkAccumulators() []uint64
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

// Observer is called at the end of every round; used for tracing.
type Observer func(round int, e *Engine)

// DefaultMaxRounds is the execution cap a zero Config.MaxRounds means: a
// generous 2²⁰ rounds. Exported so canonicalization layers (internal/api)
// can map "unset" and "explicitly the default" to the same run.
const DefaultMaxRounds = 1 << 20

// MaxN is the largest population the engine accepts (2³¹ − 1): the
// kernels store agent ids as int32, and the scatter inbox word packs an
// arrival count bounded by n into 32 bits.
const MaxN = math.MaxInt32

// Config assembles a simulation run.
type Config struct {
	// N is the population size (>= 2).
	N int
	// Channel is the noise applied to every accepted message: a BSC, whose
	// one flip probability the engine draws against.
	Channel *channel.BSC
	// Seed determines all randomness of the run.
	Seed uint64
	// MaxRounds caps execution; a run that reaches it without the
	// protocol terminating is reported with Truncated = true. Zero means
	// DefaultMaxRounds.
	MaxRounds int
	// AllowSelfMessages selects whether a sender may pick itself as the
	// recipient. The classical push-gossip convention allows it (every
	// recipient uniform over all n agents; internal/api and megasim
	// default to it); the zero value gives the thesis model's
	// self-exclusion (uniform over the other n − 1). The difference is
	// O(1/n) and no result in the paper depends on it, but only rounds
	// with self-messages allowed can take the tree regime (keyed.go).
	AllowSelfMessages bool
	// DropProb is an optional per-message loss probability applied
	// before recipient selection (weak "message failure" faults from the
	// broadcast literature, cf. paper §1.2). Zero disables.
	DropProb float64
	// Failures optionally injects crash faults (nil: none).
	Failures *CrashPlan
	// Observer, if set, runs after every round.
	Observer Observer
	// Cancel, if non-nil, aborts the run when it becomes readable (closed
	// or sent to): the engine polls it at the per-round barrier — after a
	// round's deliveries and observer, before the next round starts — in
	// every regime. A canceled run returns a Result with Canceled = true
	// whose counters cover the rounds that did execute. Polling draws
	// nothing from any RNG stream, so the executed prefix is bit-identical
	// to the same prefix of an uncanceled run. Use ctx.Done() to couple a
	// run to a context.
	Cancel <-chan struct{}
	// Telemetry, if non-nil, receives per-phase kernel timings and the
	// regime of every round of this run. The probe is byte-inert by
	// construction: it is consulted only at phase boundaries the round
	// loop already has, it draws from no RNG stream (statically
	// proven by breathevet's telemetry analyzer — the telemetry package
	// imports nothing from this module), and nothing it returns feeds back
	// into the run. Results are bit-identical with the probe on or off;
	// internal/api's telemetry identity tests pin that across every regime
	// and worker count.
	Telemetry *telemetry.RunProbe
	// Shards sets the worker-goroutine count of parallel tree rounds: 0
	// means GOMAXPROCS, 1 forces serial execution. Results are
	// bit-identical for every value — every tree bucket's draws are
	// addressed by (round, bucket), so Shards only decides how many
	// goroutines sweep the buckets (see keyed.go). Callers that already
	// parallelize across runs typically set Shards: 1 to avoid
	// oversubscription.
	Shards int
}

func (c Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("sim: population size %d < 2", c.N)
	}
	if c.N > MaxN {
		return fmt.Errorf("sim: population size %d > %d", c.N, MaxN)
	}
	if c.Channel == nil {
		return fmt.Errorf("sim: nil channel")
	}
	if !(0 <= c.DropProb && c.DropProb < 1) {
		return fmt.Errorf("sim: drop probability %v outside [0, 1)", c.DropProb)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("sim: negative MaxRounds %d", c.MaxRounds)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: negative Shards %d", c.Shards)
	}
	return nil
}

// PathRounds counts a run's executed rounds by the sampling regime that
// ran them (keyed.go). The engine picks the regime round by round — a
// single run routinely mixes them: scatter rounds while few agents send,
// tree rounds at full blast — as a pure function of the round's message
// count, n, the configuration and the protocol's answers, never of
// Config.Shards or any other performance knob.
type PathRounds struct {
	// PerAgent is always 0: every protocol is collected in bulk. The
	// field stays only because the repository benchmark (perfbench)
	// reads it.
	PerAgent int64 `json:"per_agent,omitempty"`
	// Quiet counts rounds with no live senders (the protocol's "breathe"
	// phases): a BulkSenders call and the round barrier, no kernel work.
	Quiet int64 `json:"quiet,omitempty"`
	// PerMessage counts scatter rounds: one placement draw per message,
	// count-based accept-one per receiver.
	PerMessage int64 `json:"per_message,omitempty"`
	// Dense counts tree rounds swept serially.
	Dense int64 `json:"dense,omitempty"`
	// Sharded counts tree rounds large enough (n ≥ shardMinN and at least
	// shardMinMessages messages) to sweep their buckets in parallel.
	Sharded int64 `json:"sharded,omitempty"`
	// Sparse counts tree-eligible rounds whose sender lists are short
	// (k listed senders, before the crash filter, with k·64 < n); the
	// sparse walker executes them. Like every other counter it depends on neither Shards nor on
	// whether the senders were collected in bulk or through Send
	// (simtest.PerAgent).
	Sparse int64 `json:"sparse,omitempty"`
}

// Total returns the number of rounds counted.
func (p PathRounds) Total() int64 {
	return p.Quiet + p.PerMessage + p.Dense + p.Sharded + p.Sparse
}

// Primary names the path that executed the most rounds, ignoring Quiet
// rounds (every protocol breathes; the question is what runs when it
// speaks). Returns "per-message", "dense", "sharded", "sparse", or
// "quiet" when no round carried a message.
func (p PathRounds) Primary() string {
	name, best := "quiet", int64(0)
	for _, c := range []struct {
		name string
		n    int64
	}{{"per-message", p.PerMessage}, {"dense", p.Dense}, {"sharded", p.Sharded}, {"sparse", p.Sparse}} {
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
	}{{"per-message", p.PerMessage}, {"dense", p.Dense}, {"sharded", p.Sharded}, {"sparse", p.Sparse}, {"quiet", p.Quiet}} {
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
	// MessagesAccepted counts deliveries that reached the protocol.
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
// call Reset(cfg) before any further Run. A second Run without Reset
// panics — it would silently reuse stale counters and corrupt the Result.
//
// Observers run after every round and may read the engine's public
// accessors (N, MessagesSent, Paths) and query the protocol (e.g.
// Opinion). The per-round inboxes are engine-internal scratch, zero
// between rounds, so no per-message state is observable after a round
// ends.
type Engine struct {
	cfg Config

	key   rng.Key     // the run's draw-schedule root
	keyed *keyedState // lazily allocated kernel scratch, sized for cfg.N

	started  bool
	round    int
	sent     int64
	accepted int64
	dropped  int64
	paths    PathRounds
}

// NewEngine validates cfg and prepares an engine.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset validates cfg and arms the engine for a fresh run under it, the
// whole configuration included: seed, channel, crash plan, hooks. A Reset
// engine behaves exactly like NewEngine(cfg), so Run is again a pure
// function of (config, protocol, seed); only the kernel scratch carries
// over, and only while N stays the same. An invalid cfg leaves the engine
// as it was and returns the validation error. Reset during a run is not
// supported.
func (e *Engine) Reset(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.N != e.cfg.N {
		// The kernels allocate their inboxes at n on first use only.
		e.keyed = nil
	}
	e.cfg = cfg
	// Every draw of the run, engine-side and protocol-side, is addressed
	// through e.key.
	e.key = rng.NewKey(cfg.Seed)
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
	return nil
}

// SetTelemetry installs (or, with nil, removes) the run probe for the next
// run, in place of the armed Config.Telemetry; see that field's doc for
// the byte-inertness contract. Panics if a run is in progress or finished
// without an intervening Reset: swapping the probe mid-run would split
// one run's timings across two probes.
func (e *Engine) SetTelemetry(t *telemetry.RunProbe) {
	if e.started {
		panic("sim: Engine.SetTelemetry on a started engine — Reset first")
	}
	e.cfg.Telemetry = t
}

// N returns the population size.
func (e *Engine) N() int { return e.cfg.N }

// MessagesSent returns the running total of pushes.
func (e *Engine) MessagesSent() int64 { return e.sent }

// Paths returns the per-kernel-path round counts so far (valid inside
// Observer callbacks; the full-run breakdown is in Result.Paths).
func (e *Engine) Paths() PathRounds { return e.paths }

// QuietSpans is always 0: the engine executes every round. The method
// stays only because the repository benchmark (perfbench) reads it.
func (e *Engine) QuietSpans() int64 { return 0 }

// Run executes p until it reports Done or MaxRounds is hit. Calling Run a
// second time without an intervening Reset panics: the engine's counters
// carry state from the finished run.
func (e *Engine) Run(p Protocol) Result {
	if e.started {
		panic("sim: Engine.Run called twice — engines run once per arming; call Reset(cfg) to reuse the engine")
	}
	e.started = true

	n := e.cfg.N
	p.Setup(n, e.key)

	e.prepareKeyed(p)

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
		if tel != nil {
			tel.BeginRound(e.round)
		}
		reg := e.stepKeyed(p)
		if e.cfg.Observer != nil {
			e.cfg.Observer(e.round, e)
		}
		if tel != nil {
			tel.EndRound(e.round, reg, e.sent, e.accepted, e.dropped)
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

// Run is the package-level convenience: build an engine for cfg and run p.
func Run(cfg Config, p Protocol) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(p), nil
}
