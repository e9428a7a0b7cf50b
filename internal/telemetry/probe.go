package telemetry

import (
	"io"
	"strconv"
	"time"
)

// Phase labels one slice of a simulation round. Kernels that fuse phases
// bill the fused work to the first phase in the fusion; the per-kernel
// mapping is documented on sim's instrumentation sites.
type Phase uint8

const (
	// PhaseSenders: deciding who sends this round (Send scan or
	// BulkSenders + crash filtering).
	PhaseSenders Phase = iota
	// PhasePlacement: choosing recipients (scatter throws, multinomial
	// bucket splits).
	PhasePlacement
	// PhaseCollision: accept-one resolution among colliding messages
	// (reservoir picks, bucket claiming) and any noise co-sampled there.
	PhaseCollision
	// PhaseNoise: a separately billed channel-noise pass, where one
	// exists. The engine's regimes co-sample noise with the accept-one
	// draw and bill it to PhaseCollision, so the engine leaves it empty.
	PhaseNoise
	// PhaseAccumulate: delivering accepted values into protocol state
	// and the protocol's EndRound.
	PhaseAccumulate
	// PhaseBarrier: everything between rounds — observer callbacks,
	// cancellation polls, trace emission, loop overhead.
	PhaseBarrier
	NumPhases = int(PhaseBarrier) + 1
)

var phaseNames = [NumPhases]string{
	"senders", "placement", "collision", "noise", "accumulate", "barrier",
}

// String returns the stable lower-case phase name used in traces and
// metric labels.
func (p Phase) String() string { return phaseNames[p] }

// PhaseNames lists all phase names in Phase order.
func PhaseNames() [NumPhases]string { return phaseNames }

// Regime labels which kernel path executed a round, mirroring
// sim.PathRounds.
type Regime uint8

const (
	RegimeQuiet Regime = iota
	RegimePerMessage
	RegimeDense
	RegimeSharded
	RegimeSparse
	NumRegimes = int(RegimeSparse) + 1
)

var regimeNames = [NumRegimes]string{
	"quiet", "per-message", "dense", "sharded", "sparse",
}

// String returns the stable regime name used in traces and metric labels.
func (r Regime) String() string { return regimeNames[r] }

// RegimeNames lists all regime names in Regime order.
func RegimeNames() [NumRegimes]string { return regimeNames }

// RunProbe accumulates per-phase wall time and regime round counts for
// one simulation run, and optionally streams an
// NDJSON trace. It is driven by a single goroutine (the engine's round
// loop); Reset re-arms it for the next run so pools can reuse one probe
// per worker. All clock reads happen here — instrumented code only calls
// BeginRound/Mark/EndRound at phase boundaries.
//
// The probe is byte-inert by construction: it draws nothing, and nothing
// it returns feeds back into the simulation.
type RunProbe struct {
	epoch time.Time // monotonic base for all readings
	last  time.Duration

	phaseNs      [NumPhases]int64
	roundNs      [NumPhases]int64 // current round only
	regimeRounds [NumRegimes]int64
	rounds       int64

	lastSent, lastAccepted, lastDropped int64

	trace *TraceWriter
}

// NewRunProbe returns a probe ready for one run.
func NewRunProbe() *RunProbe {
	//breathe:walltime-ok probe epoch: telemetry owns the module's clock reads
	return &RunProbe{epoch: time.Now()}
}

// Reset clears all accumulated state (and detaches any trace writer) so
// the probe can observe another run.
func (p *RunProbe) Reset() {
	*p = RunProbe{epoch: p.epoch}
}

// SetTrace attaches an NDJSON trace writer. Pass nil to detach.
func (p *RunProbe) SetTrace(t *TraceWriter) { p.trace = t }

func (p *RunProbe) now() time.Duration {
	//breathe:walltime-ok probe readings: telemetry owns the module's clock reads
	return time.Since(p.epoch)
}

// BeginRound marks the start of a round's kernel work. Time since the
// previous reading is billed to the barrier phase.
func (p *RunProbe) BeginRound(round int) {
	now := p.now()
	if p.rounds > 0 || p.last != 0 {
		p.phaseNs[PhaseBarrier] += int64(now - p.last)
	}
	p.last = now
	p.roundNs = [NumPhases]int64{}
}

// Mark bills the time since the previous reading to phase ph.
func (p *RunProbe) Mark(ph Phase) {
	now := p.now()
	d := int64(now - p.last)
	p.phaseNs[ph] += d
	p.roundNs[ph] += d
	p.last = now
}

// EndRound closes the round: remaining time goes to the barrier phase,
// the regime round count advances, and — when a trace is attached — a
// round record is emitted with the per-phase nanoseconds and the deltas
// of the cumulative sent/accepted/dropped counters.
func (p *RunProbe) EndRound(round int, regime Regime, sent, accepted, dropped int64) {
	now := p.now()
	d := int64(now - p.last)
	p.phaseNs[PhaseBarrier] += d
	p.roundNs[PhaseBarrier] += d
	p.last = now
	p.regimeRounds[regime]++
	p.rounds++
	ds, da, dd := sent-p.lastSent, accepted-p.lastAccepted, dropped-p.lastDropped
	p.lastSent, p.lastAccepted, p.lastDropped = sent, accepted, dropped
	if p.trace != nil {
		p.trace.roundRecord(round, regime, &p.roundNs, ds, da, dd)
	}
}

// FinishRun emits the run-summary trace record and flushes the writer.
func (p *RunProbe) FinishRun(rounds int) {
	if p.trace != nil {
		p.trace.runRecord(rounds, &p.phaseNs, &p.regimeRounds)
	}
}

// PhaseNanos returns cumulative per-phase wall time in nanoseconds.
func (p *RunProbe) PhaseNanos() [NumPhases]int64 { return p.phaseNs }

// RegimeRounds returns how many rounds each regime handled.
func (p *RunProbe) RegimeRounds() [NumRegimes]int64 { return p.regimeRounds }

// Rounds returns the number of rounds observed.
func (p *RunProbe) Rounds() int64 { return p.rounds }

// TraceWriter streams NDJSON run-trace records: one object per line, no
// allocation in steady state (one reused buffer), with an optional
// sampling stride and byte cap. The schema:
//
//	{"t":"round","round":R,"regime":"dense","ns":{"senders":..,...},"sent":S,"accepted":A,"dropped":D}
//	{"t":"run","rounds":N,"phase_ns":{...},"regime_rounds":{...}}
//	{"t":"truncated"}                        — emitted once if maxBytes was hit
//
// The run record is always written, and its regime_rounds sum to its
// rounds; round records only every `every` rounds (1 = all).
type TraceWriter struct {
	w        io.Writer
	every    int
	maxBytes int
	written  int
	buf      []byte
	err      error
	stopped  bool
}

// NewTraceWriter wraps w. every < 1 is treated as 1; maxBytes ≤ 0 means
// unlimited.
func NewTraceWriter(w io.Writer, every, maxBytes int) *TraceWriter {
	if every < 1 {
		every = 1
	}
	return &TraceWriter{w: w, every: every, maxBytes: maxBytes, buf: make([]byte, 0, 512)}
}

// Err returns the first write error, if any.
func (t *TraceWriter) Err() error { return t.err }

func (t *TraceWriter) flushLine() {
	if t.err != nil || t.stopped {
		return
	}
	if t.maxBytes > 0 && t.written+len(t.buf) > t.maxBytes {
		t.stopped = true
		t.buf = append(t.buf[:0], `{"t":"truncated"}`...)
		t.buf = append(t.buf, '\n')
	}
	n, err := t.w.Write(t.buf)
	t.written += n
	if err != nil {
		t.err = err
	}
}

func appendPhaseObj(buf []byte, ns *[NumPhases]int64) []byte {
	buf = append(buf, '{')
	for i, name := range phaseNames {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, name...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, ns[i], 10)
	}
	return append(buf, '}')
}

func (t *TraceWriter) roundRecord(round int, regime Regime, ns *[NumPhases]int64, sent, accepted, dropped int64) {
	if t.stopped || round%t.every != 0 {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"t":"round","round":`...)
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, `,"regime":"`...)
	b = append(b, regime.String()...)
	b = append(b, `","ns":`...)
	b = appendPhaseObj(b, ns)
	b = append(b, `,"sent":`...)
	b = strconv.AppendInt(b, sent, 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendInt(b, accepted, 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, dropped, 10)
	b = append(b, '}', '\n')
	t.buf = b
	t.flushLine()
}

func (t *TraceWriter) runRecord(rounds int, ns *[NumPhases]int64, rr *[NumRegimes]int64) {
	if t.stopped {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"t":"run","rounds":`...)
	b = strconv.AppendInt(b, int64(rounds), 10)
	b = append(b, `,"phase_ns":`...)
	b = appendPhaseObj(b, ns)
	b = append(b, `,"regime_rounds":{`...)
	for i, name := range regimeNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, name...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, rr[i], 10)
	}
	b = append(b, '}', '}', '\n')
	t.buf = b
	t.flushLine()
}
