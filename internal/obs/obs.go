package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical span names. The instrumentation layers (internal/dist,
// internal/dynamic, internal/server) agree on these so that Phases can
// decompose any batch trace and the /debug/traces consumers can filter
// without guessing strings.
const (
	// SpanBatch is the root of one update-batch absorption.
	SpanBatch = "batch"
	// SpanVerify is the root of a one-shot or session verification.
	SpanVerify = "verify"
	// SpanQueueWait is the time a request waited for its session's
	// serialization mutex behind earlier batches.
	SpanQueueWait = "queue-wait"
	// SpanProve is prover work: a localized repair or a full re-prove.
	SpanProve = "prove"
	// SpanSweep is one engine verification sweep (full or subset).
	SpanSweep = "sweep"
	// SpanRound is one synchronous CONGEST round inside a sweep or a
	// preprocessing phase.
	SpanRound = "round"
	// SpanBroadcast is an alarm flood (Engine.Broadcast).
	SpanBroadcast = "broadcast"
	// SpanBudgetWait is the time spent acquiring (or failing to
	// acquire) extra-worker slots from the shared verification budget.
	SpanBudgetWait = "budget-wait"
	// SpanPersist is the durability work of a batch (WAL append and/or
	// snapshot) on the ack path.
	SpanPersist = "persist"
	// SpanAdmit is the time a batch waited in the fair-share admission
	// queue for an execution slot (QoS scheduling), before any
	// session-level queue-wait.
	SpanAdmit = "admit"
)

// The steps of a planarity re-prove, recorded as the children of its
// SpanProve span in this order and named after the package doing the
// work. Phases does not descend into SpanProve, so they refine the
// prove phase without changing the decomposition.
const (
	// SpanLRCheck is the class checks (non-empty, connected) and the
	// left-right planarity test that yields a rotation system.
	SpanLRCheck = "planarity.check"
	// SpanEulerAudit validates the rotation against the graph and checks
	// its genus is 0.
	SpanEulerAudit = "embedding.audit"
	// SpanTransform is the §3.2 cut along the DFS tree plus the §3.1
	// interval sweep.
	SpanTransform = "core.transform"
	// SpanCertObjects builds the structured certificates and spreads the
	// edge certificates along the degeneracy order (§3.3).
	SpanCertObjects = "core.cert_objects"
	// SpanEncode serialises the certificates to bit strings.
	SpanEncode = "core.encode"
	// SpanRepairState builds the localized-repair state of the session.
	SpanRepairState = "dynamic.state"
)

// Attr is one span attribute: either a string or an int64 value under a
// key. Attributes carry the cost-model quantities (mode, frontier size,
// certificate bits, rounds) alongside the timings.
type Attr struct {
	Key string
	Str string
	Int int64
	// IsStr selects which of Str/Int holds the value.
	IsStr bool
}

// Span is one timed, attributed phase of a trace. Spans nest: children
// are created with Child and the whole tree is retained when the root
// ends. Durations come from the monotonic clock (time.Since), so a
// wall-clock step cannot corrupt them.
//
// All methods are safe on a nil *Span (they do nothing and return nil),
// so instrumented code never branches on "is tracing on". A Span's own
// methods are safe for concurrent use; the only shared mutation is the
// parent's child list and the span's attribute list, both guarded by
// the span's mutex.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span

	// Root-only bookkeeping: the owning tracer collects the trace when
	// the root ends.
	tracer  *Tracer
	session string
	id      uint64
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a nested span under s. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetInt records an integer attribute (last write wins is NOT applied;
// duplicate keys append — readers use the first occurrence).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
	s.mu.Unlock()
}

// SetStr records a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, IsStr: true})
	s.mu.Unlock()
}

// End stamps the span's duration from the monotonic clock. Ending a
// root span hands the completed trace to its tracer's sampler. End is
// idempotent; the first call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	t := s.tracer
	s.mu.Unlock()
	if t != nil {
		t.collect(s)
	}
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's wall-clock start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the span's duration: the monotonic end-start
// interval after End, the live elapsed time before it, 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Children returns a copy of the span's child list.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// IntAttr returns the first integer attribute under key.
func (s *Span) IntAttr(key string) (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key && !a.IsStr {
			return a.Int, true
		}
	}
	return 0, false
}

// StrAttr returns the first string attribute under key.
func (s *Span) StrAttr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key && a.IsStr {
			return a.Str, true
		}
	}
	return "", false
}

// spanJSON is the wire shape of one span on /debug/traces.
type spanJSON struct {
	Name          string                 `json:"name"`
	StartUnixNano int64                  `json:"start_unix_nano"`
	DurationNanos int64                  `json:"duration_nanos"`
	Unfinished    bool                   `json:"unfinished,omitempty"`
	Attrs         map[string]interface{} `json:"attrs,omitempty"`
	Children      []*Span                `json:"children,omitempty"`
}

// MarshalJSON renders the span (and, recursively, its children) for
// /debug/traces. Attributes collapse into a key→value object; on a
// duplicate key the first occurrence wins, matching IntAttr/StrAttr.
func (s *Span) MarshalJSON() ([]byte, error) {
	s.mu.Lock()
	v := spanJSON{
		Name:          s.name,
		StartUnixNano: s.start.UnixNano(),
		DurationNanos: int64(s.dur),
		Unfinished:    !s.ended,
		Children:      append([]*Span(nil), s.children...),
	}
	if !s.ended {
		v.DurationNanos = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]interface{}, len(s.attrs))
		for _, a := range s.attrs {
			if _, dup := v.Attrs[a.Key]; dup {
				continue
			}
			if a.IsStr {
				v.Attrs[a.Key] = a.Str
			} else {
				v.Attrs[a.Key] = a.Int
			}
		}
	}
	s.mu.Unlock()
	return json.Marshal(v)
}

// TraceRecord is one completed trace retained by the ring buffer.
type TraceRecord struct {
	// ID is the tracer-unique trace id (monotonically increasing).
	ID uint64 `json:"id"`
	// Session is the session the trace belongs to ("" for one-shots).
	Session string `json:"session"`
	// Slow marks a trace retained by the slow-batch threshold rather
	// than (only) the periodic sample.
	Slow bool `json:"slow"`
	// Root is the trace's root span.
	Root *Span `json:"root"`
}

// Duration returns the root span's duration.
func (r *TraceRecord) Duration() time.Duration { return r.Root.Duration() }

// Config parameterises a Tracer. The zero value is usable: 256 retained
// traces, every trace sampled, 100ms slow threshold.
type Config struct {
	// Ring is the number of completed traces retained (0 = 256).
	Ring int
	// SampleEvery keeps every k-th completed trace regardless of
	// duration (0 or 1 = keep all). Traces in between are dropped —
	// and counted — unless the slow threshold retains them.
	SampleEvery int
	// SlowThreshold always retains traces at least this long, so the
	// latency tail survives any sampling rate (0 = 100ms; negative =
	// no slow retention).
	SlowThreshold time.Duration
}

// Default tracer parameters (Config zero-value substitutions).
const (
	DefaultRing        = 256
	DefaultSlow        = 100 * time.Millisecond
	DefaultSampleEvery = 1
)

// Tracer retains completed traces in a fixed-size ring buffer behind
// the sampler. Safe for concurrent use; a nil *Tracer is a valid
// disabled tracer (Start returns nil spans).
type Tracer struct {
	mu   sync.Mutex
	ring []*TraceRecord // circular; nil slots until first wrap
	next int            // next write position

	seq            atomic.Uint64 // trace ids
	seen           atomic.Uint64 // completed traces, for sampling
	sampleEvery    uint64
	slow           time.Duration
	droppedSampled atomic.Uint64
	droppedEvicted atomic.Uint64
}

// New builds a tracer; zero Config fields take the package defaults.
func New(cfg Config) *Tracer {
	ring := cfg.Ring
	if ring <= 0 {
		ring = DefaultRing
	}
	every := cfg.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	slow := cfg.SlowThreshold
	if slow == 0 {
		slow = DefaultSlow
	}
	return &Tracer{
		ring:        make([]*TraceRecord, ring),
		sampleEvery: uint64(every),
		slow:        slow,
	}
}

// Start opens a root span. session labels the trace for per-session
// filtering ("" for one-shot operations). On a nil tracer it returns a
// nil span, which every instrumentation site tolerates.
func (t *Tracer) Start(session, name string) *Span {
	if t == nil {
		return nil
	}
	s := newSpan(name)
	s.tracer = t
	s.session = session
	s.id = t.seq.Add(1)
	return s
}

// collect runs the sampler on a completed root span and retains or
// drops the trace.
func (t *Tracer) collect(root *Span) {
	slow := t.slow > 0 && root.dur >= t.slow
	nth := t.seen.Add(1)
	sampled := t.sampleEvery <= 1 || nth%t.sampleEvery == 0
	if !slow && !sampled {
		t.droppedSampled.Add(1)
		return
	}
	rec := &TraceRecord{ID: root.id, Session: root.session, Slow: slow, Root: root}
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.droppedEvicted.Add(1)
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
}

// Records returns retained traces, newest first. session filters by
// session name ("" = all); limit bounds the result (0 = all retained).
func (t *Tracer) Records(session string, limit int) []*TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := len(t.ring)
	out := make([]*TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := t.ring[(t.next-1-i+2*n)%n]
		if rec == nil {
			continue
		}
		if session != "" && rec.Session != session {
			continue
		}
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	t.mu.Unlock()
	return out
}

// Dropped returns the drop counters: traces the sampler discarded and
// traces the ring evicted to make room.
func (t *Tracer) Dropped() (sampled, evicted uint64) {
	if t == nil {
		return 0, 0
	}
	return t.droppedSampled.Load(), t.droppedEvicted.Load()
}

// Phase names of the batch decomposition returned by Phases. "verify"
// is derived (sweep time minus nested budget-wait); "other" is the root
// residue no phase claims (JSON decode, report marshalling, watcher
// broadcast).
const (
	PhaseAdmit      = SpanAdmit
	PhaseQueueWait  = SpanQueueWait
	PhaseBudgetWait = SpanBudgetWait
	PhaseProve      = SpanProve
	PhaseVerify     = SpanVerify
	PhasePersist    = SpanPersist
	PhaseOther      = "other"
)

// Phases decomposes a batch trace into the service phases: admit,
// queue-wait, budget-wait, prove, verify, persist and other. Sweep
// spans count as verify time minus the budget-wait they contain; round
// spans are part of their sweep and are not double-counted. The phases
// sum to the root duration.
func Phases(root *Span) map[string]time.Duration {
	out := map[string]time.Duration{
		PhaseAdmit:      0,
		PhaseQueueWait:  0,
		PhaseBudgetWait: 0,
		PhaseProve:      0,
		PhaseVerify:     0,
		PhasePersist:    0,
	}
	if root == nil {
		return out
	}
	var walk func(s *Span)
	walk = func(s *Span) {
		for _, c := range s.Children() {
			switch c.Name() {
			case SpanAdmit:
				out[PhaseAdmit] += c.Duration()
			case SpanQueueWait:
				out[PhaseQueueWait] += c.Duration()
			case SpanProve:
				out[PhaseProve] += c.Duration()
			case SpanPersist:
				out[PhasePersist] += c.Duration()
			case SpanSweep:
				var bw time.Duration
				for _, g := range c.Children() {
					if g.Name() == SpanBudgetWait {
						bw += g.Duration()
					}
				}
				out[PhaseBudgetWait] += bw
				out[PhaseVerify] += c.Duration() - bw
			case SpanBudgetWait:
				out[PhaseBudgetWait] += c.Duration()
			default:
				walk(c)
			}
		}
	}
	walk(root)
	var sum time.Duration
	for _, d := range out {
		sum += d
	}
	if other := root.Duration() - sum; other > 0 {
		out[PhaseOther] = other
	} else {
		out[PhaseOther] = 0
	}
	return out
}
