// Package server implements planarcertd's HTTP/JSON service surface: a
// registry of named, concurrent certification sessions on top of
// planarcert.Session, plus one-shot certify/verify endpoints, streaming
// watch, health and Prometheus metrics.
//
// Verification of a proof-labeling scheme is a stateless 1-round
// operation (every node decides from its 1-hop view), which makes it a
// natural network service: the only state worth keeping server-side is
// the incremental-repair state of a Session. The server therefore
// manages many independent sessions, each serialized behind its own
// mutex (planarcert.Session is single-goroutine by contract), while all
// of them draw their parallel verification fan-out from one shared
// planarcert.WorkerBudget so that N concurrent flushes cannot
// oversubscribe the machine.
//
// Endpoints (all request/response bodies are JSON; see api.go for the
// wire types):
//
//	GET    /healthz                        liveness + session/batch counters
//	GET    /readyz                         503 until boot recovery completes
//	GET    /metrics                        Prometheus text exposition
//	GET    /v1/schemes                     available scheme names
//	POST   /v1/certify                     one-shot prove + verify
//	POST   /v1/verify                      one-shot verify of a given assignment
//	POST   /v1/sessions                    create a named session
//	GET    /v1/sessions                    list sessions
//	GET    /v1/sessions/{name}             session status
//	DELETE /v1/sessions/{name}             delete (terminates watch streams)
//	POST   /v1/sessions/{name}/updates     NDJSON update batch; ?mode=apply|queue
//	POST   /v1/sessions/{name}/flush       absorb the queued log as one batch
//	POST   /v1/sessions/{name}/verify      full 1-round re-verification
//	GET    /v1/sessions/{name}/certificates  current assignment
//	GET    /v1/sessions/{name}/graph       current topology (node/edge lists)
//	GET    /v1/sessions/{name}/watch       chunked NDJSON stream of SessionReports
//
// # Durability
//
// With Config.DataDir set, every session is backed by a write-ahead log
// and periodic certificate snapshots (internal/wal): an applied batch
// is logged before the request is acked, so an acked batch survives a
// crash (under the default fsync policy, even power loss). On boot,
// Recover restores each session from its newest valid snapshot plus the
// WAL tail, truncating at the first corrupt record, and the
// proof-labeling scheme's own full verification sweep validates the
// restored certificates — stale or damaged assignments re-prove. The
// /v1/sessions endpoints answer 503 until recovery completes; /readyz
// distinguishes a recovering (or draining) daemon from a live one.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/qos"
	"github.com/planarcert/planarcert/internal/wal"
	"github.com/planarcert/planarcert/internal/wire"
)

// Config parameterises a Server.
type Config struct {
	// MaxSessions bounds the number of live sessions (0 = 1024).
	MaxSessions int
	// BudgetSlots sizes the shared verification worker budget
	// (0 = GOMAXPROCS).
	BudgetSlots int
	// Engine is the base engine configuration given to every session and
	// one-shot verification; its Budget field is overwritten with the
	// server's shared budget.
	Engine planarcert.EngineConfig
	// WatchBuffer is the per-watcher channel depth before reports are
	// dropped on a slow consumer (0 = 16).
	WatchBuffer int
	// ReplayEvents is the per-session replay ring depth: how many past
	// watch events a reconnecting binary subscription can resume from
	// before it is told to reset (0 = 64; negative disables replay).
	ReplayEvents int
	// MaxBatchUpdates bounds the number of NDJSON lines accepted in one
	// updates request (0 = 65536).
	MaxBatchUpdates int
	// DataDir enables the durability layer when non-empty: every applied
	// batch is written to a per-session WAL before it is acked, sessions
	// snapshot periodically, and Recover restores them on boot. Callers
	// setting DataDir must call Recover before serving traffic — session
	// endpoints answer 503 until it completes (see /readyz).
	DataDir string
	// Fsync is the WAL fsync policy (zero value wal.SyncAlways: an acked
	// batch survives power loss).
	Fsync wal.SyncPolicy
	// SnapshotEvery is the number of logged batches between automatic
	// per-session snapshots (0 = 32). Explicit flushes and shutdown also
	// snapshot. A WAL tail replayed at boot counts towards the next
	// automatic snapshot, which compacts it.
	SnapshotEvery int
	// TraceRing is the number of completed batch traces retained for
	// /debug/traces (0 = 256; negative disables tracing entirely).
	TraceRing int
	// TraceSampleEvery keeps every Nth batch trace (0 or 1 = every
	// trace). Slow batches are retained regardless — see TraceSlow.
	TraceSampleEvery int
	// TraceSlow is the duration at or above which a batch trace is
	// always retained, bypassing the sampler (0 = 100ms; negative
	// disables slow retention).
	TraceSlow time.Duration

	// AuthTokens, when non-empty, requires every request (except
	// /healthz, /readyz and /metrics) to carry one of these bearer
	// tokens; comparison is constant-time across the whole list.
	AuthTokens []string
	// RateLimit is the sustained per-client request rate (requests per
	// second; the client is the bearer token, or the remote host when
	// auth is off). 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the per-client burst allowance (0 = max(8, 2×RateLimit)).
	RateBurst int
	// QoSWeights overrides the fair-share weights per QoS class for both
	// the worker budget and the batch admission scheduler (nil entries
	// take the defaults: interactive 16, batch 4, background 1).
	QoSWeights map[planarcert.QoSClass]int
	// ExecSlots bounds the number of batches executing concurrently
	// across all sessions; excess batches wait in the weighted
	// fair-share admission queue (0 = max(4, 2×GOMAXPROCS)).
	ExecSlots int
	// AdmitTimeout bounds the admission-queue wait before a batch is
	// rejected with 503 (0 = 30s).
	AdmitTimeout time.Duration
	// DefaultQoS is the QoS class of sessions that do not request one,
	// and of every session restored from durable state ("" = "batch").
	DefaultQoS string
	// EvictLRU evicts the least-recently-used session instead of
	// rejecting creation with 429 when MaxSessions is reached. Durable
	// victims keep their on-disk state and are recoverable at next boot.
	EvictLRU bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.BudgetSlots <= 0 {
		c.BudgetSlots = runtime.GOMAXPROCS(0)
	}
	if c.WatchBuffer <= 0 {
		c.WatchBuffer = 16
	}
	if c.ReplayEvents == 0 {
		c.ReplayEvents = 64
	}
	if c.MaxBatchUpdates <= 0 {
		c.MaxBatchUpdates = 65536
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 32
	}
	if c.ExecSlots <= 0 {
		c.ExecSlots = 2 * runtime.GOMAXPROCS(0)
		if c.ExecSlots < 4 {
			c.ExecSlots = 4
		}
	}
	if c.AdmitTimeout <= 0 {
		c.AdmitTimeout = 30 * time.Second
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RateLimit)
		if c.RateBurst < 8 {
			c.RateBurst = 8
		}
	}
	if c.DefaultQoS == "" {
		c.DefaultQoS = qos.Batch.String()
	}
	return c
}

// Server is the planarcertd HTTP handler. Construct with New, mount via
// Handler, and Close on shutdown to terminate open watch streams.
type Server struct {
	cfg    Config
	budget *planarcert.WorkerBudget
	met    *metrics
	start  time.Time
	mux    *http.ServeMux
	// tracer records one span tree per flushed batch; nil when tracing
	// is disabled (Config.TraceRing < 0) — every span operation is
	// nil-safe, so the instrumented paths need no conditionals.
	tracer *obs.Tracer

	// exec is the batch-admission scheduler: a second fair-share
	// scheduler gating how many batches EXECUTE concurrently (the worker
	// budget only shares out extra verification workers within an
	// executing batch). Every session holds a claimant on it in its QoS
	// class, so a reprove storm queues behind its own weight instead of
	// monopolizing the CPU ahead of interactive repairs.
	exec *qos.Scheduler
	// execAnon admits the one-shot certify/verify endpoints, which have
	// no session to carry a class; they ride as interactive.
	execAnon *qos.Claimant
	// limiter is the per-client token-bucket rate limiter; nil when
	// Config.RateLimit is 0.
	limiter *rateLimiter
	// defaultQoS is Config.DefaultQoS parsed once at construction.
	defaultQoS qos.Class

	// root is the durability layer's data directory; nil until Recover
	// opens it (and forever nil when Config.DataDir is empty).
	root *wal.Root
	// ready flips once boot replay has completed (immediately for a
	// non-durable server). Session endpoints 503 while it is false.
	ready atomic.Bool
	// draining rejects new batches and session creations while shutdown
	// flushes and snapshots the live sessions.
	draining atomic.Bool

	mu       sync.RWMutex
	sessions map[string]*session
	closing  bool
}

// New returns a ready-to-mount server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		budget:   planarcert.NewWorkerBudgetWeights(cfg.BudgetSlots, cfg.QoSWeights),
		met:      newMetrics(),
		start:    time.Now(),
		mux:      http.NewServeMux(),
		sessions: make(map[string]*session),
		exec:     qos.NewScheduler(cfg.ExecSlots, cfg.QoSWeights),
	}
	s.execAnon = s.exec.Claimant("one-shot", qos.Interactive)
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst, time.Now)
	}
	if c, err := qos.ParseClass(cfg.DefaultQoS); err == nil {
		s.defaultQoS = c
	} else {
		s.defaultQoS = qos.Batch
	}
	if cfg.TraceRing >= 0 {
		s.tracer = obs.New(obs.Config{
			Ring:          cfg.TraceRing,
			SampleEvery:   cfg.TraceSampleEvery,
			SlowThreshold: cfg.TraceSlow,
		})
	}
	s.cfg.Engine.Budget = s.budget
	// A non-durable server has nothing to recover and is born ready;
	// a durable one flips ready inside Recover.
	if cfg.DataDir == "" {
		s.ready.Store(true)
	}

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("POST /v1/certify", s.handleCertify)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v1/sessions/{name}/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/sessions/{name}/flush", s.handleFlush)
	s.mux.HandleFunc("POST /v1/sessions/{name}/verify", s.handleSessionVerify)
	s.mux.HandleFunc("GET /v1/sessions/{name}/certificates", s.handleCertificates)
	s.mux.HandleFunc("GET /v1/sessions/{name}/graph", s.handleSessionGraph)
	s.mux.HandleFunc("GET /v1/sessions/{name}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/sessions/{name}/watch/ack", s.handleWatchAck)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{session}", s.handleTraces)
	return s
}

// Handler returns the HTTP handler with request accounting, bearer
// auth and per-client rate limiting (probes and /metrics are exempt
// from both — see exemptPath). Session endpoints are gated behind boot
// recovery: until Recover completes they answer 503, so a load
// balancer probing /readyz and a client racing the boot see the same
// story.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.httpRequests.Add(1)
		if !exemptPath(r.URL.Path) {
			token, ok := s.authorize(r)
			if !ok {
				s.met.authFailures.Add(1)
				w.Header().Set("WWW-Authenticate", `Bearer realm="planarcertd"`)
				writeError(w, http.StatusUnauthorized, "missing or invalid bearer token")
				return
			}
			if !s.limiter.allow(clientKey(r, token)) {
				s.met.rateLimited.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
				return
			}
		}
		if !s.ready.Load() && strings.HasPrefix(r.URL.Path, "/v1/sessions") {
			writeError(w, http.StatusServiceUnavailable, "recovering: session replay in progress")
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Close drains and deletes every session, terminating their watch
// streams, and refuses further session creation (503), so an HTTP
// Shutdown started right after cannot be wedged by a freshly created
// watch stream. The drain is ordered: new batches are rejected first
// (draining), then each session absorbs its queued updates as one final
// batch and broadcasts it; on a durable server that batch is logged, a
// final snapshot is written and the store closed. In-flight batches
// finish first because shutdown takes the same per-session mutex, and
// batches still waiting in admission get 503. It is the daemon's
// shutdown hook.
func (s *Server) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closing = true
	all := make([]*session, 0, len(s.sessions))
	for name, ms := range s.sessions {
		all = append(all, ms)
		delete(s.sessions, name)
	}
	s.mu.Unlock()
	for _, ms := range all {
		ms.shutdown(true)
		s.met.sessionsDeleted.Add(1)
	}
}

// SessionCount returns the number of live sessions.
func (s *Server) SessionCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sessions)
}

func (s *Server) lookup(name string) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[name]
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, APIError{Error: fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func schemeOrDefault(name planarcert.SchemeName) planarcert.SchemeName {
	if name == "" {
		return planarcert.SchemePlanarity
	}
	return name
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Sessions:      s.SessionCount(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Batches:       s.met.modeCounts(),
	})
}

// handleReadyz is the readiness probe, distinct from the /healthz
// liveness probe: a recovering or draining daemon is alive but must not
// receive traffic yet (or anymore).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd := Ready{
		Ready:            true,
		Status:           "ok",
		Sessions:         s.SessionCount(),
		SessionsRestored: s.met.sessionsRestored.Load(),
		RecoverySeconds:  s.met.recoverySeconds(),
	}
	switch {
	case !s.ready.Load():
		rd.Ready, rd.Status = false, "recovering"
	case s.draining.Load():
		rd.Ready, rd.Status = false, "draining"
	}
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	active := len(s.sessions)
	watchers := 0
	for _, ms := range s.sessions {
		ms.watchMu.Lock()
		watchers += len(ms.watchers)
		ms.watchMu.Unlock()
	}
	s.mu.RUnlock()
	sampled, evicted := s.tracer.Dropped()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	live := liveStats{
		activeSessions:   active,
		watchers:         watchers,
		budgetSlots:      s.budget.Slots(),
		budgetInUse:      s.budget.InUse(),
		budgetQueueDepth: s.budget.QueueDepth(),
		execSlots:        s.exec.Slots(),
		execInUse:        s.exec.InUse(),
		execQueueDepth:   s.exec.QueueDepth(),
		budgetGrants:     make(map[string]uint64),
		execGrants:       make(map[string]uint64),
		traceDropSampled: sampled,
		traceDropEvicted: evicted,
	}
	for class, n := range s.budget.GrantsByClass() {
		live.budgetGrants[class.String()] = n
	}
	for class, n := range s.exec.Grants() {
		live.execGrants[class.String()] = n
	}
	s.met.write(w, live)
}

// TracesPage is the /debug/traces response: the retained trace records
// (newest first) plus the tracer's drop counters, so a consumer can
// tell how complete the window is.
type TracesPage struct {
	// Enabled is false when the server was built with tracing disabled.
	Enabled bool `json:"enabled"`
	// Session is the filter applied ("" = all sessions).
	Session string `json:"session,omitempty"`
	// DroppedSampled counts traces dropped by the sampler.
	DroppedSampled uint64 `json:"dropped_sampled"`
	// DroppedEvicted counts traces evicted from the ring by newer ones.
	DroppedEvicted uint64 `json:"dropped_evicted"`
	// Traces are the retained records, newest first.
	Traces []*obs.TraceRecord `json:"traces"`
}

// handleTraces serves the trace ring buffer as JSON; the {session} form
// filters to one session's traces. ?limit=N caps the records returned.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	page := TracesPage{Enabled: s.tracer != nil, Session: r.PathValue("session")}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", q)
			return
		}
		limit = n
	}
	page.DroppedSampled, page.DroppedEvicted = s.tracer.Dropped()
	page.Traces = s.tracer.Records(page.Session, limit)
	if page.Traces == nil {
		page.Traces = []*obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, planarcert.Schemes())
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	var req CertifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	net, err := req.Graph.Network()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	scheme := schemeOrDefault(req.Scheme)
	certs, err := planarcert.Certify(net, scheme)
	if err != nil {
		if errors.Is(err, planarcert.ErrUnknownScheme) {
			writeError(w, http.StatusBadRequest, "%v", err)
		} else {
			writeError(w, http.StatusUnprocessableEntity, "prover: %v", err)
		}
		return
	}
	if !s.acquireExec(s.execAnon, nil, r.Context().Done()) {
		writeError(w, http.StatusServiceUnavailable, "admission queue timed out")
		return
	}
	start := time.Now()
	rep, err := planarcert.VerifyWith(net, scheme, certs, s.cfg.Engine)
	s.execAnon.Release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "verify: %v", err)
		return
	}
	s.met.verifySeconds.observe(time.Since(start).Seconds())
	resp := CertifyResponse{Report: rep}
	if req.IncludeCertificates {
		resp.Certificates = wireCertificates(certs)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	net, err := req.Graph.Network()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	if !s.acquireExec(s.execAnon, nil, r.Context().Done()) {
		writeError(w, http.StatusServiceUnavailable, "admission queue timed out")
		return
	}
	start := time.Now()
	rep, err := planarcert.VerifyWith(net, schemeOrDefault(req.Scheme), unwireCertificates(req.Certificates), s.cfg.Engine)
	s.execAnon.Release()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.verifySeconds.observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "session name is required")
		return
	}
	// Cheap admission check before the (potentially expensive) initial
	// certification, so duplicate names, a full registry, or a closing
	// server reject in O(1) instead of proving first and failing after.
	// The authoritative re-check happens at insertion below.
	if !s.admit(w, req.Name) {
		return
	}
	class := s.defaultQoS
	if req.QoS != "" {
		var err error
		if class, err = qos.ParseClass(req.QoS); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	net, err := req.Graph.Network()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}
	popts := persistOpts{
		repairThreshold: req.RepairThreshold,
		cacheSize:       req.CacheSize,
		noFlip:          req.NoFlip,
	}
	scheme := schemeOrDefault(req.Scheme)
	ps, err := planarcert.NewSession(net, scheme, s.engineFor(req.Name, class), popts.options()...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ms := s.newSession(req.Name, scheme, class, ps, popts)

	// On a durable server the session's store and initial snapshot are
	// set up after registration but under ms.mu, so a concurrent apply
	// that finds the session in the registry blocks until the store
	// exists — no batch can slip by unlogged.
	durable := s.root != nil
	if durable {
		ms.mu.Lock()
	}
	s.mu.Lock()
	if !s.admitLocked(w, req.Name) {
		s.mu.Unlock()
		if durable {
			ms.mu.Unlock()
		}
		return
	}
	var victims []*session
	if s.cfg.EvictLRU {
		victims = s.evictForSpaceLocked()
	}
	s.sessions[req.Name] = ms
	s.mu.Unlock()
	s.finishEviction(victims)
	if durable {
		var err error
		if ms.store, err = s.root.CreateSession(req.Name); err == nil {
			err = ms.writeSnapshotLocked()
		}
		// A batch already waiting on ms.mu must find a failed session
		// shut, not absorb unlogged; shutdown closes the store.
		ms.shut = err != nil
		ms.mu.Unlock()
		if err != nil {
			s.mu.Lock()
			delete(s.sessions, req.Name)
			s.mu.Unlock()
			ms.shutdown(false)
			writeError(w, http.StatusInternalServerError, "persist session: %v", err)
			return
		}
	}
	s.met.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, ms.status())
}

// admit checks the session-creation preconditions under a read lock and
// writes the rejection response if any fails.
func (s *Server) admit(w http.ResponseWriter, name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admitLocked(w, name)
}

// admitLocked is admit's body; the caller holds s.mu (read or write).
func (s *Server) admitLocked(w http.ResponseWriter, name string) bool {
	switch {
	case s.closing, s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return false
	case s.sessions[name] != nil:
		writeError(w, http.StatusConflict, "session %q already exists", name)
		return false
	case len(s.sessions) >= s.cfg.MaxSessions && !s.cfg.EvictLRU:
		writeError(w, http.StatusTooManyRequests, "session limit reached (%d)", s.cfg.MaxSessions)
		return false
	}
	return true
}

// engineFor derives the per-session engine configuration: the shared
// base plus a named worker-budget claimant in the session's QoS class,
// so contended verification workers are granted by weighted fair share
// instead of FIFO arrival order.
func (s *Server) engineFor(name string, class qos.Class) planarcert.EngineConfig {
	eng := s.cfg.Engine
	eng.Claimant = s.budget.Claimant(name, class)
	return eng
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	all := make([]*session, 0, len(s.sessions))
	for _, ms := range s.sessions {
		all = append(all, ms)
	}
	s.mu.RUnlock()
	out := make([]*SessionStatus, 0, len(all))
	for _, ms := range all {
		out = append(out, ms.status())
	}
	sortStatuses(out)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, ms.status())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	ms := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", name)
		return
	}
	ms.shutdown(false)
	if s.root != nil {
		if err := s.root.RemoveSession(name); err != nil {
			writeError(w, http.StatusInternalServerError, "remove durable state: %v", err)
			return
		}
	}
	s.met.sessionsDeleted.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleUpdates reads an update batch and absorbs it. The body format
// is content-negotiated: NDJSON UpdateLine records (Content-Type empty,
// application/x-ndjson or application/json) or a single binary
// update-batch frame (planarcert.WireContentType; see internal/wire).
// Any other Content-Type is rejected with 415 and an Accept-Post hint.
// mode=apply (the default) queues and flushes the batch as one batch;
// mode=queue only appends to the session log for a later flush (a
// binary frame carries its own mode and ignores the query parameter).
//
// The session has ONE update log (planarcert.Session semantics): apply
// and flush absorb the entire pending log, including updates other
// clients queued earlier — the returned Report.Updates counts them all.
// A structurally invalid batch is rejected and the WHOLE log discarded,
// again including previously queued updates; clients mixing queue-mode
// writers must coordinate or accept that coupling.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	switch contentTypeBase(r.Header.Get("Content-Type")) {
	case "", "application/x-ndjson", "application/json":
		// NDJSON below.
	case wire.ContentType:
		s.handleUpdatesBinary(w, r, ms)
		return
	default:
		s.rejectMediaType(w, r)
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode == "" {
		mode = "apply"
	}
	if mode != "apply" && mode != "queue" {
		writeError(w, http.StatusBadRequest, "mode must be apply or queue, got %q", mode)
		return
	}

	var updates []planarcert.Update
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, 64<<20))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if len(updates) >= s.cfg.MaxBatchUpdates {
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d updates", s.cfg.MaxBatchUpdates)
			return
		}
		var ul UpdateLine
		if err := json.Unmarshal(raw, &ul); err != nil {
			writeError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		u, err := ul.Update()
		if err != nil {
			writeError(w, http.StatusBadRequest, "line %d: %v", line, err)
			return
		}
		updates = append(updates, u)
	}
	if err := sc.Err(); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}

	ms.touch()
	if mode == "queue" {
		pending, err := ms.queue(updates)
		if err != nil {
			s.batchError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, UpdatesResponse{Queued: len(updates), Pending: pending})
		return
	}
	if rep, elapsed, ok := s.runBatch(w, r, ms, updates, false); ok {
		writeJSON(w, http.StatusOK, UpdatesResponse{Queued: len(updates), Report: rep, ElapsedSeconds: elapsed.Seconds()})
	}
}

// runBatch is the one admission path of a session batch: an update
// batch of either encoding, or a flush (nil updates, with checkpoint
// set). It admits the batch through the fair-share scheduler, absorbs it
// under the session lock — the lock wait is the trace's queue-wait span
// — and records it in the metrics. On failure it has written the error
// response and ok is false; on success the caller writes the ack in its
// own encoding.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, ms *session, updates []planarcert.Update, checkpoint bool) (rep *planarcert.SessionReport, elapsed time.Duration, ok bool) {
	sp := s.tracer.Start(ms.name, obs.SpanBatch)
	if !s.acquireExec(ms.execClaim, sp, r.Context().Done()) {
		sp.SetStr("error", "admission timeout")
		sp.End()
		writeError(w, http.StatusServiceUnavailable, "admission queue timed out (class %q)", ms.qos)
		return nil, 0, false
	}
	qw := sp.Child(obs.SpanQueueWait)
	ms.mu.Lock()
	qw.End()
	rep, elapsed, err := ms.absorb(updates, checkpoint, sp)
	ms.mu.Unlock()
	ms.execClaim.Release()
	if err != nil {
		sp.SetStr("error", err.Error())
		sp.End()
		s.batchError(w, err)
		return nil, 0, false
	}
	sp.End()
	s.recordBatch(sp, ms, rep, elapsed)
	return rep, elapsed, true
}

// recordBatch feeds one flushed batch into the metrics. With tracing
// on, the batch's budget-wait phase (summed over its sweeps) lands in
// the budget-wait histogram — measured waiting, not inference.
func (s *Server) recordBatch(sp *obs.Span, ms *session, rep *planarcert.SessionReport, elapsed time.Duration) {
	s.met.batchDone(rep.Mode, string(rep.ActiveScheme), ms.qos.String(), rep.Updates, rep.Verified, elapsed.Seconds())
	if sp != nil {
		s.met.budgetWait.observe(obs.Phases(sp)[obs.PhaseBudgetWait].Seconds())
	}
}

// batchError maps a failed batch or queue request to its status: a
// batch the session rejected is the client's fault (422); one that
// reached a shut-down session was neither absorbed nor logged (503); one
// that could not be made durable is the server's fault (500) and was
// NOT acked — though it was applied in memory, so the client must
// re-sync before retrying.
func (s *Server) batchError(w http.ResponseWriter, err error) {
	var pe *persistError
	switch {
	case errors.Is(err, errShutDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.met.batchesRejected.Add(1)
	writeError(w, http.StatusUnprocessableEntity, "batch rejected: %v", err)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	ms.touch()
	if rep, elapsed, ok := s.runBatch(w, r, ms, nil, true); ok {
		writeJSON(w, http.StatusOK, UpdatesResponse{Report: rep, ElapsedSeconds: elapsed.Seconds()})
	}
}

func (s *Server) handleSessionVerify(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	ms.touch()
	if !s.acquireExec(ms.execClaim, nil, r.Context().Done()) {
		writeError(w, http.StatusServiceUnavailable, "admission queue timed out (class %q)", ms.qos)
		return
	}
	rep, elapsed := ms.verify()
	ms.execClaim.Release()
	s.met.verifySeconds.observe(elapsed.Seconds())
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCertificates(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, wireCertificates(ms.certificates()))
}

// handleSessionGraph exports the session's live topology. The crashloop
// harness uses it to compare recovered state against a client-side
// mirror edge for edge.
func (s *Server) handleSessionGraph(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	net := ms.network()
	hi, lo := net.Fingerprint()
	writeJSON(w, http.StatusOK, GraphExport{
		Nodes:       net.IDs(),
		Edges:       net.Edges(),
		Fingerprint: fmt.Sprintf("%016x%016x", hi, lo),
	})
}

// handleWatch streams one SessionReport per flushed batch until the
// client disconnects or the session is deleted. Both formats follow the
// same subscription (see session.subscribe): the default stream is
// chunked NDJSON; ?format=binary switches to the frame protocol, whose
// stream opens with a hello frame naming a version-acknowledged
// subscription (resume with ?sub=, acknowledge on .../watch/ack). With
// ?replay=last a fresh stream starts with the current last report, so a
// watcher always has a starting state. Each report is marshaled once
// per format and the bytes fanned out to every watcher.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by transport")
		return
	}
	q := r.URL.Query()
	contentType, binary := "application/x-ndjson", false
	switch q.Get("format") {
	case "", "json", "ndjson":
	case "binary":
		contentType, binary = wire.ContentType, true
	default:
		writeError(w, http.StatusBadRequest, "format must be json or binary, got %q", q.Get("format"))
		return
	}
	var sub uint64
	if v := q.Get("sub"); binary && v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			writeError(w, http.StatusBadRequest, "bad subscription %q", v)
			return
		}
		sub = n
	}
	st, ok := ms.subscribe(binary, sub, q.Get("replay") == "last")
	if !ok {
		writeError(w, http.StatusGone, "session %q is closed", ms.name)
		return
	}
	defer ms.unwatch(st.id)

	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	send := func(b []byte) bool {
		if _, err := w.Write(b); err != nil {
			return false
		}
		if binary {
			s.met.wireFrames.Add(1)
		}
		return true
	}
	if binary {
		hello, err := wire.EncodeHello(st.hello)
		if err != nil || !send(hello) {
			return
		}
	}
	flusher.Flush() // ship the headers so clients unblock before the first event
	for _, b := range st.replay {
		if !send(b) {
			return
		}
		s.met.watchReplayed.Add(1)
	}
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-st.ch:
			if !open {
				return // session deleted
			}
			// broadcast encoded ev for this watcher's format under
			// watchMu before sending it (and dropped it instead when the
			// encode failed).
			b := ev.json
			if binary {
				b = ev.bin
			}
			if !send(b) {
				return
			}
			flusher.Flush()
		}
	}
}

// sortStatuses orders a listing by name for a deterministic API.
func sortStatuses(st []*SessionStatus) {
	sort.Slice(st, func(i, j int) bool { return st[i].Name < st[j].Name })
}
