package planarcert

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dynamic"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
	"github.com/planarcert/planarcert/internal/report"
)

// UpdateOp identifies one kind of live topology update. Its values are
// the frozen op codes of the binary wire format.
type UpdateOp = graph.Op

// Supported update operations.
const (
	OpAddEdge    = graph.OpAddEdge
	OpRemoveEdge = graph.OpRemoveEdge
	OpAddNode    = graph.OpAddNode
)

// Update is one entry of a Session's update log. OpAddNode uses only A.
type Update = graph.Update

// EdgeAdd returns an edge-insertion update.
func EdgeAdd(a, b NodeID) Update { return Update{Op: OpAddEdge, A: a, B: b} }

// EdgeRemove returns an edge-removal update.
func EdgeRemove(a, b NodeID) Update { return Update{Op: OpRemoveEdge, A: a, B: b} }

// NodeAdd returns a node-addition update.
func NodeAdd(id NodeID) Update { return Update{Op: OpAddNode, A: id} }

// checkOp rejects an out-of-range update op.
func checkOp(op UpdateOp) error {
	if !op.Valid() {
		return fmt.Errorf("planarcert: unknown update op %d", op)
	}
	return nil
}

// SessionReport describes how one update batch was absorbed. The JSON
// field names are part of the planarcertd wire format (the watch stream
// emits one SessionReport per flushed batch).
type SessionReport = report.SessionReport

func sessionReportOf(r *dynamic.Report) *SessionReport {
	sr := &SessionReport{
		Generation:      r.Generation,
		Mode:            string(r.Mode),
		ActiveScheme:    SchemeName(r.Scheme),
		Updates:         r.Updates,
		Dirty:           r.Dirty,
		Verified:        r.Verified,
		FullVerify:      r.FullVerify,
		Accepted:        r.Accepted,
		CacheGeneration: r.CacheGeneration,
		RepairFallback:  r.RepairFallback,
	}
	if r.Outcome != nil {
		sr.Verification = reportOf(r.Outcome)
	}
	if r.ProveErr != nil {
		sr.ProveErr = r.ProveErr.Error()
	}
	return sr
}

// SessionOption tunes a Session beyond the engine configuration.
type SessionOption func(*sessionOpts)

type sessionOpts struct {
	repairThreshold int
	cacheSize       int
	noFlip          bool
}

// WithRepairThreshold bounds the localized-repair scope per batch
// (ranks scanned during interval patching, nodes touched during tree
// surgery). Zero keeps the default; negative disables repair so every
// effective batch re-proves (or hits the cache).
func WithRepairThreshold(k int) SessionOption {
	return func(o *sessionOpts) { o.repairThreshold = k }
}

// WithCacheSize bounds the certificate cache (certified topologies
// remembered by fingerprint). Zero keeps the default; negative disables
// the cache.
func WithCacheSize(k int) SessionOption {
	return func(o *sessionOpts) { o.cacheSize = k }
}

// WithoutFlip pins the session to its configured scheme instead of
// flipping between the planarity and non-planarity schemes when
// planarity itself flips.
func WithoutFlip() SessionOption {
	return func(o *sessionOpts) { o.noFlip = true }
}

// Session maintains a network and its certificates across a live stream
// of updates. Instead of re-proving and re-verifying the whole network
// per change (the one-shot Certify/Verify pipeline), a session computes
// the dirty region of each update batch, repairs certificates locally
// when it can — chord surgery on the spanning-path proof for
// planarity, spanning-tree surgery for the tree schemes — re-verifies
// only the dirty region's 1-hop closure through the sharded engine, and
// falls back to a full re-prove (with scheme flipping and a
// generation-stamped certificate cache) when it cannot.
//
// A Session is not safe for concurrent use: callers driving one session
// from several goroutines must serialize every method behind one mutex
// (internal/server does exactly that for planarcertd). Distinct
// sessions are independent and may run concurrently; give them a shared
// EngineConfig.Budget to bound their combined verification parallelism.
type Session struct {
	d *dynamic.Session
}

// NewSession clones the network and certifies it under the named
// scheme. The session is returned even when the initial prover fails
// (empty or uncertifiable network) — it reports uncertified until
// updates bring the network into a certifiable class. For the planarity
// and non-planarity schemes the session flips between the two when the
// network crosses the planarity boundary (disable with WithoutFlip).
func NewSession(n *Network, name SchemeName, cfg EngineConfig, opts ...SessionOption) (*Session, error) {
	dc, err := sessionConfig(name, cfg, opts)
	if err != nil {
		return nil, err
	}
	d, err := dynamic.NewSession(n.g.Clone(), dc)
	if err != nil {
		return nil, err
	}
	return &Session{d: d}, nil
}

// sessionConfig resolves a session's scheme and options and, unless
// WithoutFlip is given, the counterpart scheme it flips to.
func sessionConfig(name SchemeName, cfg EngineConfig, opts []SessionOption) (dynamic.Config, error) {
	scheme, err := schemeByName(name)
	if err != nil {
		return dynamic.Config{}, err
	}
	var o sessionOpts
	for _, opt := range opts {
		opt(&o)
	}
	dc := dynamic.Config{
		Scheme:          scheme,
		RepairThreshold: o.repairThreshold,
		CacheSize:       o.cacheSize,
		EngineOpts:      cfg.options(),
	}
	if !o.noFlip {
		switch name {
		case SchemePlanarity:
			dc.Counterpart = core.NonPlanarScheme{}
		case SchemeNonPlanarity:
			dc.Counterpart = core.PlanarScheme{}
		}
	}
	return dc, nil
}

// SessionSnapshot is the restorable state of a Session: everything a
// persistence layer must save to rebuild the session after a restart.
// The planarcertd WAL layer serialises it (keyed by the topology
// fingerprint) and hands it back to RestoreSession on boot.
// RestoreSession consumes a snapshot: the restored session takes over
// its Network and Certificates, so the caller must hold no other
// reference to them.
type SessionSnapshot struct {
	// Scheme is the scheme the session was created with.
	Scheme SchemeName
	// ActiveScheme is the scheme certifying the network at snapshot time
	// (differs from Scheme after a planarity flip).
	ActiveScheme SchemeName
	// Generation is the number of batches absorbed at snapshot time.
	Generation uint64
	// Network is the network to restore; Snapshot fills it with a deep
	// copy of the live network.
	Network *Network
	// Certificates is the assignment to restore (nil when the session
	// was uncertified); Snapshot fills it with a deep copy.
	Certificates Certificates
}

// Snapshot captures the session's restorable state as deep copies, so
// the caller can serialise it while the session keeps absorbing
// batches.
func (s *Session) Snapshot() *SessionSnapshot {
	return &SessionSnapshot{
		Scheme:       SchemeName(s.d.Scheme().Name()),
		ActiveScheme: s.ActiveScheme(),
		Generation:   s.Generation(),
		Network:      s.Network(),
		Certificates: s.Certificates(),
	}
}

// RestoreSession rebuilds a session from a snapshot. Restoration is
// self-validating: the snapshot's certificates are installed and the
// active scheme's full 1-round verification sweep runs over them — the
// exact soundness check the proof-labeling scheme defines — so a stale
// or corrupted assignment is caught semantically and the session falls
// back to re-proving from the snapshot's network. The returned session
// is therefore always in a consistent state; check Certified or
// Last().Mode ("restore" vs "reprove"/"flip"/"uncertified") to see
// which path it took.
//
// The snapshot is consumed: the session takes ownership of snap.Network
// and snap.Certificates without copying them, so neither may be read or
// mutated afterwards. Snapshot returns deep copies, so its result can
// be handed over as it is.
func RestoreSession(snap *SessionSnapshot, cfg EngineConfig, opts ...SessionOption) (*Session, error) {
	dc, err := sessionConfig(snap.Scheme, cfg, opts)
	if err != nil {
		return nil, err
	}
	var active pls.Scheme
	if snap.ActiveScheme != "" && snap.ActiveScheme != snap.Scheme {
		if active, err = schemeByName(snap.ActiveScheme); err != nil {
			return nil, err
		}
	}
	d, err := dynamic.Restore(snap.Network.g, dc, active, map[NodeID]Certificate(snap.Certificates), snap.Generation)
	if err != nil {
		return nil, err
	}
	return &Session{d: d}, nil
}

// Fingerprint returns the session's 128-bit order-independent topology
// fingerprint (the snapshot and certificate-cache key), maintained in
// O(1) per update.
func (s *Session) Fingerprint() (hi, lo uint64) { return s.d.Fingerprint() }

// Apply queues the updates and absorbs the whole pending log as one
// batch. A structurally invalid log (unknown endpoint, duplicate edge
// or node, self-loop) is rejected and discarded without touching the
// network.
func (s *Session) Apply(updates []Update) (*SessionReport, error) {
	// Check the whole batch before queueing any of it, so a bad update
	// cannot leave a partial prefix in the log.
	for _, u := range updates {
		if err := checkOp(u.Op); err != nil {
			return nil, err
		}
	}
	rep, err := s.d.Apply(updates)
	if err != nil {
		return nil, err
	}
	return sessionReportOf(rep), nil
}

// Queue appends an update to the log without applying it; the next
// Apply or Flush absorbs the whole log as one batch.
func (s *Session) Queue(u Update) error {
	if err := checkOp(u.Op); err != nil {
		return err
	}
	s.d.Queue(u)
	return nil
}

// Flush absorbs the queued update log as one batch.
func (s *Session) Flush() (*SessionReport, error) {
	rep, err := s.d.Flush()
	if err != nil {
		return nil, err
	}
	return sessionReportOf(rep), nil
}

// Network returns a deep copy of the live network.
func (s *Session) Network() *Network { return &Network{g: s.d.Graph().Clone()} }

// N returns the number of nodes.
func (s *Session) N() int { return s.d.Graph().N() }

// M returns the number of edges.
func (s *Session) M() int { return s.d.Graph().M() }

// Generation counts absorbed batches.
func (s *Session) Generation() uint64 { return s.d.Generation() }

// Certified reports whether the current assignment was accepted.
func (s *Session) Certified() bool { return s.d.Certified() }

// ActiveScheme returns the scheme currently certifying the network.
func (s *Session) ActiveScheme() SchemeName { return SchemeName(s.d.ActiveScheme().Name()) }

// Last returns the report of the most recent batch (generation 0 is the
// initial certification).
func (s *Session) Last() *SessionReport { return sessionReportOf(s.d.Last()) }

// RepairThreshold returns the current localized-repair scope bound (-1
// when repair is disabled).
func (s *Session) RepairThreshold() int { return s.d.RepairThreshold() }

// Certificates returns a deep copy of the current assignment, so
// callers mutating the map or its byte slices cannot corrupt the
// session's internal state.
func (s *Session) Certificates() Certificates {
	return cloneCertificates(Certificates(s.d.Certificates()))
}

// Verify re-runs the active scheme's full 1-round verification over the
// live network with the session's certificates — the parity baseline
// against a fresh Certify+Verify.
func (s *Session) Verify() *Report {
	return reportOf(s.d.VerifyFull())
}
