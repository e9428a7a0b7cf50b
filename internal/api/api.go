// Package api defines the request/response types of the breathed
// simulation service and the canonical config hash that keys its
// content-addressed result cache.
//
// Every simulation in this repository is a pure function of
// (configuration, seed), so a completed run is cacheable forever under a
// key derived from its semantic configuration alone. The contract here is
// strict: two requests that describe the same run must hash identically
// regardless of JSON field order, default elision, or pure performance
// knobs. Conversely anything that can change a single output bit is part
// of the hash.
//
// Every draw of a run is addressed by (seed, stream, round, agent,
// counter), so the kernels and worker counts are bit-identical by
// construction: Kernel and Shards are erased from the canonical request,
// and a result computed by one kernel is served byte-for-byte to a
// request naming another.
//
// The same types serve as the machine-readable output format of
// cmd/megasim (-json), so batch and service results are directly
// comparable.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"breathe/internal/async"
	"breathe/internal/channel"
	"breathe/internal/core"
	"breathe/internal/rng"
	"breathe/internal/sim"
)

// Protocol names accepted by RunRequest.Protocol.
const (
	ProtoBroadcast     = "broadcast"
	ProtoConsensus     = "consensus"
	ProtoAsyncOffsets  = "async-offsets"
	ProtoAsyncSelfSync = "async-selfsync"
)

// Kernel names accepted by RunRequest.Kernel.
const (
	KernelAuto     = "auto"
	KernelPerAgent = "per-agent"
)

// ScheduleKeyed is the one draw schedule, and the only value
// RunRequest.Schedule accepts besides "" (which normalizes to it): every
// draw is addressed by (seed, stream, round, agent/bucket, counter).
const ScheduleKeyed = "keyed"

// RunRequest describes one simulation run. The zero value of every
// optional field means "default"; Normalize resolves the defaults so that
// equal runs compare (and hash) equal.
type RunRequest struct {
	// Protocol selects the scenario: broadcast | consensus |
	// async-offsets | async-selfsync. Default broadcast.
	Protocol string `json:"protocol,omitempty"`
	// N is the population size (required, >= 2).
	N int `json:"n"`
	// Eps is the channel parameter ε ∈ (0, 0.5]: bits flip with
	// probability 1/2 − ε (0.5 = noiseless). Default 0.3.
	Eps float64 `json:"eps,omitempty"`
	// Seed fixes all randomness of the run.
	Seed uint64 `json:"seed"`
	// MaxRounds caps execution (0 = engine default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// NoSelfMessages switches to the thesis model's self-exclusion
	// convention. The default (false) is the classical push convention,
	// which enables the dense aggregate kernel.
	NoSelfMessages bool `json:"no_self_messages,omitempty"`
	// DropProb is the per-message loss probability in [0, 1).
	DropProb float64 `json:"drop_prob,omitempty"`
	// ABias is the consensus initial set's majority bias in [0, 0.5];
	// 0 means a balanced initial set (cmd/megasim's -abias flag defaults
	// to 0.2 instead). Ignored — and canonicalized to 0 — for the other
	// protocols.
	ABias float64 `json:"abias,omitempty"`
	// CrashProb crashes each agent (except agent 0, which is protected so
	// the scenario stays winnable) with this probability at CrashRound.
	CrashProb float64 `json:"crash_prob,omitempty"`
	// CrashRound is the round the crash plan takes effect (default 0).
	CrashRound int `json:"crash_round,omitempty"`
	// Kernel selects the execution strategy: auto (the default: the
	// engine uses the batched machinery whenever the protocol and n allow
	// it) | per-agent (one Send/Receive call per agent, the cross-check of
	// the batched collection). A pure perf knob — every kernel replays the
	// same addressed draws — so it is erased from the canonical request.
	Kernel string `json:"kernel,omitempty"`
	// Schedule names the draw schedule: keyed, the only one, and the
	// default. Kept so requests that name it stay valid; it is hashed as
	// "keyed", so every existing cache address stays stable.
	Schedule string `json:"schedule,omitempty"`

	// Shards is the sharded kernel's worker count (0 = all cores). A pure
	// performance knob — results are bit-identical for every value — so it
	// is excluded from the hash and from the canonical request.
	Shards int `json:"shards,omitempty"`
	// TrajectoryEvery streams/records one trajectory point every this
	// many rounds (0 = no trajectory). Observers draw nothing from any
	// RNG stream, so this cannot change the result; excluded from the
	// hash and from the canonical request.
	TrajectoryEvery int `json:"trajectory_every,omitempty"`
	// TraceEvery records one kernel run-trace record (telemetry NDJSON:
	// per-phase nanoseconds, regime, message deltas) every this many
	// rounds (0 = no trace), downloadable per job. The run probe is
	// byte-inert — it draws nothing and never steers the round loop — so
	// this cannot change the result either; excluded from the hash and
	// from the canonical request.
	TraceEvery int `json:"trace_every,omitempty"`
}

// Normalize resolves defaults in place so that requests meaning the same
// run compare equal field by field. Call before Validate or Hash.
func (r *RunRequest) Normalize() {
	r.Protocol = strings.ToLower(strings.TrimSpace(r.Protocol))
	if r.Protocol == "" {
		r.Protocol = ProtoBroadcast
	}
	r.Kernel = strings.ToLower(strings.TrimSpace(r.Kernel))
	if r.Kernel == "" {
		r.Kernel = KernelAuto
	}
	r.Schedule = strings.ToLower(strings.TrimSpace(r.Schedule))
	if r.Schedule == "" {
		r.Schedule = ScheduleKeyed
	}
	if r.Eps == 0 {
		r.Eps = 0.3
	}
	if r.MaxRounds == 0 {
		// "Unset" and "explicitly the engine default" are the same run
		// and must share a hash.
		r.MaxRounds = sim.DefaultMaxRounds
	}
	if r.Protocol != ProtoConsensus {
		r.ABias = 0
	}
	if r.CrashProb == 0 {
		r.CrashRound = 0
	}
}

// Validate checks a normalized request strictly, returning the first
// problem found. The limits are semantic (what the engine supports), not
// capacity limits — admission control is the service's concern.
func (r RunRequest) Validate() error {
	switch r.Protocol {
	case ProtoBroadcast, ProtoConsensus, ProtoAsyncOffsets, ProtoAsyncSelfSync:
	default:
		return fmt.Errorf("api: unknown protocol %q", r.Protocol)
	}
	switch r.Kernel {
	case KernelAuto, KernelPerAgent:
	default:
		return fmt.Errorf("api: unknown kernel %q (valid: %s, %s)", r.Kernel, KernelAuto, KernelPerAgent)
	}
	if r.Schedule != ScheduleKeyed {
		return fmt.Errorf("api: unknown schedule %q (the only draw schedule is %q)", r.Schedule, ScheduleKeyed)
	}
	if r.N < 2 {
		return fmt.Errorf("api: population size %d < 2", r.N)
	}
	if r.N > sim.MaxN {
		return fmt.Errorf("api: population size %d > %d", r.N, sim.MaxN)
	}
	if !(0 < r.Eps && r.Eps <= 0.5) {
		return fmt.Errorf("api: eps %v outside (0, 0.5]", r.Eps)
	}
	// A tiny eps stretches the Θ(log n / ε²) schedule past int. The bound
	// also rejects every eps for which the channel's 1/2 − ε rounds to 1/2.
	if _, err := core.ParamsFor(r.N, r.Eps, core.DefaultConstants); err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if r.MaxRounds < 0 {
		return fmt.Errorf("api: negative max_rounds %d", r.MaxRounds)
	}
	if !(0 <= r.DropProb && r.DropProb < 1) {
		return fmt.Errorf("api: drop_prob %v outside [0, 1)", r.DropProb)
	}
	if !(0 <= r.ABias && r.ABias <= 0.5) {
		return fmt.Errorf("api: abias %v outside [0, 0.5]", r.ABias)
	}
	if !(0 <= r.CrashProb && r.CrashProb < 1) {
		return fmt.Errorf("api: crash_prob %v outside [0, 1)", r.CrashProb)
	}
	if r.CrashRound < 0 {
		return fmt.Errorf("api: negative crash_round %d", r.CrashRound)
	}
	if r.Shards < 0 {
		return fmt.Errorf("api: negative shards %d", r.Shards)
	}
	if r.TrajectoryEvery < 0 {
		return fmt.Errorf("api: negative trajectory_every %d", r.TrajectoryEvery)
	}
	if r.TraceEvery < 0 {
		return fmt.Errorf("api: negative trace_every %d", r.TraceEvery)
	}
	return nil
}

// Canonical returns the request reduced to its semantic content: defaults
// resolved and the pure performance knobs zeroed. Two requests describe
// the same run — and may share a cache entry byte for byte — iff their
// Canonical forms are equal. The canonical form is what a RunResponse
// embeds, so a cached response never leaks the perf knobs of whichever
// request happened to compute it.
func (r RunRequest) Canonical() RunRequest {
	r.Normalize()
	r.Shards = 0
	r.TrajectoryEvery = 0
	r.TraceEvery = 0
	// Draws are addressed, not consumed: every kernel replays the
	// identical schedule, so the kernel choice is pure perf.
	r.Kernel = KernelAuto
	return r
}

// Hash returns the content address of the run this request describes: a
// hex SHA-256 over a fixed-order serialization of the canonical request.
// JSON field order and default elision cannot affect it (the canonical
// struct, not the wire form, is hashed), and perf knobs are excluded. The
// preimage still carries the canonical kernel ("auto") and schedule
// ("keyed") lines, so addresses computed before either became fixed stay
// valid.
func (r RunRequest) Hash() string {
	c := r.Canonical()
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "breathe-run/v2\nprotocol=%s\nn=%d\neps=%s\nseed=%d\nmax_rounds=%d\nno_self=%t\ndrop=%s\nabias=%s\ncrash=%s\ncrash_round=%d\nkernel=%s\nschedule=%s\n",
		c.Protocol, c.N, canonFloat(c.Eps), c.Seed, c.MaxRounds, c.NoSelfMessages,
		canonFloat(c.DropProb), canonFloat(c.ABias), canonFloat(c.CrashProb),
		c.CrashRound, c.Kernel, c.Schedule)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// canonFloat renders a float64 in its shortest round-trip form, so every
// distinct value has exactly one serialization.
func canonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Run is a fully built run: the engine configuration, a factory producing
// a fresh protocol instance per execution (engines are pooled and reused;
// protocol state is not), and the run's derived metadata.
type Run struct {
	// Config is the engine configuration (Observer and Cancel unset; the
	// executor installs its own hooks).
	Config sim.Config
	// NewProtocol returns a fresh protocol instance for one execution.
	NewProtocol func() sim.Protocol
	// Crashed is the size of the crash set (0 without a crash plan).
	Crashed int
	// ScheduleRounds is the protocol's nominal total schedule length.
	ScheduleRounds int
	// OffsetSpread is the async-offsets clock spread D (0 otherwise).
	OffsetSpread int
	// ActivationPrelude is the self-sync prelude length L (0 otherwise).
	ActivationPrelude int
}

// Build compiles a normalized, validated request into a Run. The mapping
// mirrors cmd/megasim: DefaultParams(n, eps), target opinion One, the
// consensus initial set sized 4·β_s with the requested majority bias, and
// async spreads D = 2·⌈log₂ n⌉ / L = 3·⌈log₂ n⌉.
func (r RunRequest) Build() (*Run, error) {
	r.Normalize()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	params := core.DefaultParams(r.N, r.Eps)
	logN := ceilLog2(r.N)

	var factory func() (sim.Protocol, error)
	scheduleRounds, offsetSpread, prelude := 0, 0, 0
	switch r.Protocol {
	case ProtoBroadcast:
		factory = func() (sim.Protocol, error) { return core.NewBroadcast(params, channel.One) }
		scheduleRounds = params.TotalRounds()
	case ProtoConsensus:
		sizeA := 4 * params.BetaS
		if sizeA > r.N/2 {
			sizeA = r.N / 2
		}
		correct := int(float64(sizeA) * (0.5 + r.ABias))
		factory = func() (sim.Protocol, error) {
			return core.NewConsensus(params, channel.One, correct, sizeA-correct)
		}
		scheduleRounds = params.TotalRounds()
	case ProtoAsyncOffsets:
		D := 2 * logN
		offsetSpread = D
		factory = func() (sim.Protocol, error) { return async.NewKnownOffsets(params, channel.One, D) }
	case ProtoAsyncSelfSync:
		L := 3 * logN
		prelude = L
		factory = func() (sim.Protocol, error) { return async.NewSelfSync(params, channel.One, L) }
	}
	// Fail construction errors now, once, instead of inside a pool worker.
	probe, err := factory()
	if err != nil {
		return nil, err
	}
	if scheduleRounds == 0 {
		type scheduler interface{ TotalRounds() int }
		if s, ok := probe.(scheduler); ok {
			scheduleRounds = s.TotalRounds()
		}
	}

	// Every ε — including the noiseless boundary ε = 0.5 — runs the honest
	// worst-case channel FromEpsilon(ε), a BSC with flip probability
	// 1/2 − ε. A BSC at flip probability 0 transmits and draws exactly
	// like channel.Noiseless (pinned by TestEpsHalfIsNoiselessBitForBit),
	// so dropping the old Noiseless special case changes no result bit
	// while keeping channel telemetry and labels truthful.
	ch := channel.Channel(channel.FromEpsilon(r.Eps))
	cfg := sim.Config{
		N:                 r.N,
		Channel:           ch,
		Seed:              r.Seed,
		MaxRounds:         r.MaxRounds,
		AllowSelfMessages: !r.NoSelfMessages,
		DropProb:          r.DropProb,
		Shards:            r.Shards,
	}
	if r.Kernel == KernelPerAgent {
		cfg.Kernel = sim.KernelPerAgent
	}

	crashed := 0
	if r.CrashProb > 0 {
		// The plan is a pure function of (n, crash_prob, crash_round,
		// seed) — agent 0 protected — drawn from the run key's dedicated
		// crash stream, so cached and fresh executions of the same request
		// share it exactly.
		plan := sim.NewRandomCrashes(r.N, r.CrashProb, r.CrashRound,
			rng.NewKey(r.Seed), 0)
		cfg.Failures = plan
		crashed = plan.NumCrashed()
	}

	run := &Run{
		Config:            cfg,
		Crashed:           crashed,
		ScheduleRounds:    scheduleRounds,
		OffsetSpread:      offsetSpread,
		ActivationPrelude: prelude,
	}
	first := probe
	run.NewProtocol = func() sim.Protocol {
		if p := first; p != nil {
			first = nil
			return p
		}
		p, err := factory()
		if err != nil {
			// The identical construction succeeded for the probe;
			// constructors are deterministic in their arguments.
			panic(fmt.Sprintf("api: protocol factory failed after probe: %v", err))
		}
		return p
	}
	return run, nil
}

// ceilLog2 returns ⌈log₂ n⌉ for n >= 2.
func ceilLog2(n int) int {
	l, p := 0, 1
	for p < n {
		p <<= 1
		l++
	}
	return l
}

// TrajectoryPoint is one streamed progress sample: the population state
// after round Round.
type TrajectoryPoint struct {
	// Round is the executed round the sample follows.
	Round int `json:"round"`
	// Correct is the number of agents holding the target opinion.
	Correct int `json:"correct"`
	// Decided is the number of agents holding any opinion.
	Decided int `json:"decided"`
	// Sent is the cumulative message count.
	Sent int64 `json:"sent"`
}

// RunResponse is the result of a completed run. It is a pure function of
// the canonical request — deliberately free of timestamps, durations and
// perf knobs — which is what lets the cache serve stored responses byte
// for byte. Timing and cache status travel out of band (job metadata,
// HTTP headers).
type RunResponse struct {
	// Request is the canonical form of the request that describes this
	// run (defaults resolved, perf knobs zeroed).
	Request RunRequest `json:"request"`
	// Hash is the run's content address, Request.Hash().
	Hash string `json:"hash"`
	// Protocol is the protocol implementation's self-reported name.
	Protocol string `json:"protocol_name"`
	// Rounds is the number of executed rounds.
	Rounds int `json:"rounds"`
	// Paths breaks Rounds down by the sampling regime that executed them —
	// the fallback detector: a run whose protocol or n rules out the
	// batched machinery counts its speaking rounds as per-agent here, not
	// in a profile.
	Paths sim.PathRounds `json:"paths"`
	// PrimaryPath names the path that executed the most rounds, ignoring
	// quiet rounds (every protocol breathes; the question is what runs
	// when it speaks). It is "quiet" exactly when no round carried a
	// message — an all-quiet or zero-round run (sim.PathRounds.Primary).
	PrimaryPath string `json:"primary_path"`
	// MessagesSent / MessagesAccepted / MessagesDropped are the run's
	// message totals.
	MessagesSent     int64 `json:"messages_sent"`
	MessagesAccepted int64 `json:"messages_accepted"`
	MessagesDropped  int64 `json:"messages_dropped"`
	// Truncated reports that MaxRounds was reached before termination.
	Truncated bool `json:"truncated,omitempty"`
	// Canceled reports a run aborted at a round barrier. Canceled
	// responses are never cached.
	Canceled bool `json:"canceled,omitempty"`
	// Opinions counts final opinions; Undecided the agents without one.
	Opinions  [2]int `json:"opinions"`
	Undecided int    `json:"undecided,omitempty"`
	// CorrectFraction is the fraction holding the target opinion (One).
	CorrectFraction float64 `json:"correct_fraction"`
	// Unanimous reports whether every agent decided on the target.
	Unanimous bool `json:"unanimous"`
	// Crashed is the size of the crash plan's crash set.
	Crashed int `json:"crashed,omitempty"`
	// Stage1Bias is the population bias toward the target when Stage I
	// completed (core.Telemetry.BiasAfterStageI), present only for
	// protocols that record it (the synchronous broadcast/consensus
	// schedules). Telemetry is measurement-only and deterministic, so the
	// field is as canonical as the counters around it.
	Stage1Bias *float64 `json:"stage1_bias,omitempty"`
}

// NewResponse assembles the response for a completed run. proto is the
// protocol instance the run executed (its telemetry feeds the optional
// response fields); nil is tolerated and simply omits them.
func NewResponse(req RunRequest, res sim.Result, crashed int, proto sim.Protocol) RunResponse {
	c := req.Canonical()
	resp := RunResponse{
		Request:          c,
		Hash:             c.Hash(),
		Protocol:         res.Protocol,
		Rounds:           res.Rounds,
		Paths:            res.Paths,
		PrimaryPath:      res.Paths.Primary(),
		MessagesSent:     res.MessagesSent,
		MessagesAccepted: res.MessagesAccepted,
		MessagesDropped:  res.MessagesDropped,
		Truncated:        res.Truncated,
		Canceled:         res.Canceled,
		Opinions:         res.Opinions,
		Undecided:        res.Undecided,
		CorrectFraction:  res.CorrectFraction(channel.One),
		Unanimous:        res.AllCorrect(channel.One),
		Crashed:          crashed,
	}
	type biased interface{ Telemetry() *core.Telemetry }
	if b, ok := proto.(biased); ok {
		bias := b.Telemetry().BiasAfterStageI
		resp.Stage1Bias = &bias
	}
	return resp
}
