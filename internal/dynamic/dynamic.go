package dynamic

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/pls"
)

// Op identifies one kind of topology update (see graph.Op).
type Op = graph.Op

// Supported update operations.
const (
	AddEdge    = graph.OpAddEdge
	RemoveEdge = graph.OpRemoveEdge
	AddNode    = graph.OpAddNode
)

// Update is one entry of the update log. AddNode uses only A.
type Update = graph.Update

// Mode labels how a batch was absorbed.
type Mode string

// Batch absorption modes.
const (
	ModeNoop        Mode = "noop"        // net effect empty, nothing to do
	ModeRepair      Mode = "repair"      // localized repair + frontier verification
	ModeCache       Mode = "cache"       // certificate cache hit
	ModeReprove     Mode = "reprove"     // full re-prove + frontier or full verification
	ModeFlip        Mode = "flip"        // re-prove under the counterpart scheme
	ModeUncertified Mode = "uncertified" // no scheme certifies the current graph
	ModeRestore     Mode = "restore"     // snapshot assignment adopted after a full sweep
)

// DefaultRepairThreshold bounds the repair scope (ranks scanned during
// interval patching, nodes touched during tree surgery) per batch.
const DefaultRepairThreshold = 2048

// DefaultCacheSize is the number of certified topologies remembered.
const DefaultCacheSize = 8

// Config parameterises a Session.
type Config struct {
	// Scheme is the configured proof-labeling scheme.
	Scheme pls.Scheme
	// Counterpart, if non-nil, is the scheme to flip to when Scheme's
	// prover reports the graph left its class (planarity <-> the
	// Kuratowski-witness scheme).
	Counterpart pls.Scheme
	// RepairThreshold bounds the localized-repair scope per batch;
	// 0 means DefaultRepairThreshold, negative disables repair.
	RepairThreshold int
	// CacheSize bounds the certificate cache; 0 means DefaultCacheSize,
	// negative disables the cache.
	CacheSize int
	// EngineOpts configure the verification engines the session builds.
	EngineOpts []dist.Option
}

// Report describes how one batch was absorbed.
type Report struct {
	// Generation is the session generation after the batch.
	Generation uint64
	// Mode says how the batch was absorbed.
	Mode Mode
	// Scheme is the active scheme after the batch.
	Scheme string
	// Updates is the number of log entries in the batch.
	Updates int
	// Dirty counts the nodes whose certificates changed. A re-prove
	// diffs its certificates against the last accepted assignment; with
	// none to diff against (a new node, a flip, an uncertified session)
	// it counts every node.
	Dirty int
	// Verified counts the nodes whose verifier re-ran: the frontier of a
	// repair or of a re-prove's certificate diff, or n for a full sweep.
	Verified int
	// FullVerify reports whether a full sweep re-verified the network; a
	// frontier sweep leaves it false.
	FullVerify bool
	// Accepted is the verification verdict (false when uncertified).
	Accepted bool
	// Outcome is the verification outcome (nil when nothing ran).
	Outcome *dist.Outcome
	// CacheGeneration is the generation stamp of the cache entry that
	// served the batch (Mode == ModeCache).
	CacheGeneration uint64
	// RepairFallback explains why a repair attempt was abandoned.
	RepairFallback string
	// ProveErr is the prover failure when Mode == ModeUncertified.
	ProveErr error
}

// repairState is the scheme-specific structured certificate state a
// repair operates on. Implementations mutate their internal structures
// and return freshly encoded certificates for the nodes they changed.
type repairState interface {
	// repair absorbs the net batch. It returns the re-encoded
	// certificates of changed nodes and their indices; ok=false means
	// the batch is out of repair scope and reason says why.
	repair(nb *netBatch, budget int) (certs map[graph.ID]bits.Certificate, changed []int, ok bool, reason string)
}

// Session maintains a certificate assignment across update batches.
type Session struct {
	g           *graph.Graph
	scheme      pls.Scheme
	counterpart pls.Scheme
	active      pls.Scheme
	threshold   int
	engineOpts  []dist.Option

	gen       uint64
	certs     map[graph.ID]bits.Certificate
	certsOwn  bool // false when certs aliases a cache entry (copy-on-write)
	certified bool
	state     repairState

	fp      fingerprint
	cache   *certCache
	pending []Update
	last    *Report
	span    *obs.Span
}

// NewSession takes ownership of g and certifies it under cfg.Scheme.
// A prover failure (empty graph, graph outside every configured class)
// leaves the session alive but uncertified — the initial Report records
// it — so sessions can start from an empty network and be grown through
// Apply.
func NewSession(g *graph.Graph, cfg Config) (*Session, error) {
	s, err := newSessionShell(g, cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{Generation: 0, Scheme: s.active.Name()}
	s.reprove(rep, nil)
	s.last = rep
	return s, nil
}

// Restore rebuilds a session from persisted state: it takes ownership
// of g and certs, installs the assignment under the active scheme
// (which must be cfg.Scheme or cfg.Counterpart; nil means cfg.Scheme),
// and self-validates by running the scheme's full 1-round verification
// sweep — the proof-labeling scheme's own soundness check, so a stale
// or tampered snapshot that slipped past the storage CRCs is caught
// semantically. If the sweep rejects (or certs is empty), Restore falls
// back to re-proving from the restored graph. The session resumes at
// generation gen; its first repair attempt, or its first planarity
// re-prove that keeps the certified embedding, decodes the repair state
// from certs, exactly as after a cache adoption.
func Restore(g *graph.Graph, cfg Config, active pls.Scheme, certs map[graph.ID]bits.Certificate, gen uint64) (*Session, error) {
	s, err := newSessionShell(g, cfg)
	if err != nil {
		return nil, err
	}
	if active != nil {
		if active.Name() != cfg.Scheme.Name() && (cfg.Counterpart == nil || active.Name() != cfg.Counterpart.Name()) {
			return nil, fmt.Errorf("dynamic: restored active scheme %q is neither the configured scheme nor its counterpart", active.Name())
		}
		s.active = active
	}
	s.gen = gen
	rep := &Report{Generation: gen, Scheme: s.active.Name()}
	if len(certs) > 0 {
		s.certs = certs
		s.certsOwn = true
		out := dist.NewEngine(s.g, s.engineOpts...).RunPLS(certs, s.active.Verify)
		if out.AllAccept() {
			s.certified = true
			rep.Mode = ModeRestore
			rep.Accepted = true
			rep.Outcome = out
			rep.FullVerify = true
			rep.Verified = out.N
			s.cache.store(s.cacheKey(), &cacheEntry{scheme: s.active, certs: certs, gen: s.gen})
			s.certsOwn = false // the cache entry shares the map
			s.last = rep
			return s, nil
		}
	}
	s.reprove(rep, nil)
	s.last = rep
	return s, nil
}

// newSessionShell builds a Session with cfg's thresholds applied but no
// certificate state (shared by NewSession and Restore).
func newSessionShell(g *graph.Graph, cfg Config) (*Session, error) {
	if cfg.Scheme == nil {
		return nil, errors.New("dynamic: nil scheme")
	}
	threshold := cfg.RepairThreshold
	switch {
	case threshold == 0:
		threshold = DefaultRepairThreshold
	case threshold < 0:
		threshold = -1
	}
	cacheSize := cfg.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = DefaultCacheSize
	case cacheSize < 0:
		cacheSize = 0
	}
	// The session builds a fresh engine per operation (the topology
	// mutates between sweeps), but all of them share one scratch pool so
	// the verifiers' decode scratch is reused across operations instead
	// of being re-grown from zero by every engine.
	engineOpts := make([]dist.Option, 0, len(cfg.EngineOpts)+1)
	engineOpts = append(engineOpts, cfg.EngineOpts...)
	engineOpts = append(engineOpts, dist.WithScratch(dist.NewScratchPool()))
	return &Session{
		g:           g,
		scheme:      cfg.Scheme,
		counterpart: cfg.Counterpart,
		active:      cfg.Scheme,
		threshold:   threshold,
		engineOpts:  engineOpts,
		cache:       newCertCache(cacheSize),
		fp:          fingerprintOf(g),
	}, nil
}

// Graph exposes the live graph. Callers must not mutate it; all
// mutations go through the update log.
func (s *Session) Graph() *graph.Graph { return s.g }

// RepairThreshold returns the current localized-repair scope bound
// (-1 when repair is disabled).
func (s *Session) RepairThreshold() int { return s.threshold }

// Fingerprint returns the 128-bit order-independent topology
// fingerprint of the live graph (the snapshot and certificate-cache
// key), maintained in O(1) per update.
func (s *Session) Fingerprint() (hi, lo uint64) { return s.fp.hi, s.fp.lo }

// Generation returns the number of absorbed batches.
func (s *Session) Generation() uint64 { return s.gen }

// Certified reports whether the current assignment was accepted.
func (s *Session) Certified() bool { return s.certified }

// ActiveScheme returns the scheme currently certifying the graph.
func (s *Session) ActiveScheme() pls.Scheme { return s.active }

// Scheme returns the scheme the session was configured with.
func (s *Session) Scheme() pls.Scheme { return s.scheme }

// Last returns the report of the most recent batch (or the initial
// certification).
func (s *Session) Last() *Report { return s.last }

// Certificates returns the live certificate assignment. The map and its
// byte slices are shared with the session; public facades deep-copy.
func (s *Session) Certificates() map[graph.ID]bits.Certificate { return s.certs }

// Queue appends an update to the log without applying it.
func (s *Session) Queue(u Update) { s.pending = append(s.pending, u) }

// TraceNext installs a tracing span for the next Flush (or the Apply
// that triggers it): the batch's verification engines attach to it (so
// sweep, round, and budget-wait children land under it — see
// dist.WithSpan), the prover records a prove child, a repair records a
// repair child, and the absorption outcome (mode, updates, dirty,
// verified, scheme) is stamped as attributes. The span is consumed by
// exactly one flush and the caller remains responsible for ending it.
// A nil span — and every flush without a preceding TraceNext — records
// nothing.
func (s *Session) TraceNext(sp *obs.Span) { s.span = sp }

// flushOpts returns the engine options for the current batch's sweeps,
// attaching the batch's tracing span when one was installed.
func (s *Session) flushOpts() []dist.Option {
	if s.span == nil {
		return s.engineOpts
	}
	opts := make([]dist.Option, 0, len(s.engineOpts)+1)
	opts = append(opts, s.engineOpts...)
	return append(opts, dist.WithSpan(s.span))
}

// Apply queues the updates and flushes the whole log as one batch.
func (s *Session) Apply(batch []Update) (*Report, error) {
	s.pending = append(s.pending, batch...)
	return s.Flush()
}

// Flush applies the queued update log as one batch. A validation error
// (unknown endpoint, duplicate edge or node, self-loop) rejects and
// discards the whole log without touching the graph.
func (s *Session) Flush() (*Report, error) {
	sp := s.span
	defer func() { s.span = nil }()
	batch := s.pending
	s.pending = nil
	rep := &Report{Updates: len(batch), Scheme: s.active.Name(), Generation: s.gen}
	if len(batch) == 0 {
		rep.Mode = ModeNoop
		rep.Accepted = s.certified
		s.last = rep
		s.stamp(sp, rep)
		return rep, nil
	}
	nb, err := s.validate(batch)
	if err != nil {
		sp.SetStr("error", err.Error())
		return nil, err
	}
	s.applyToGraph(batch)
	s.fp = s.fp.apply(nb)
	s.gen++
	rep.Generation = s.gen

	if nb.empty() {
		rep.Mode = ModeNoop
		rep.Accepted = s.certified
		s.last = rep
		s.stamp(sp, rep)
		return rep, nil
	}

	if done := s.tryRepair(nb, rep); !done {
		if done = s.tryCache(nb, rep); !done {
			s.reprove(rep, nb)
		}
	}
	s.last = rep
	s.stamp(sp, rep)
	return rep, nil
}

// stamp records a batch's absorption outcome on its tracing span.
func (s *Session) stamp(sp *obs.Span, rep *Report) {
	if sp == nil {
		return
	}
	sp.SetStr("mode", string(rep.Mode))
	sp.SetStr("scheme", rep.Scheme)
	sp.SetInt("updates", int64(rep.Updates))
	sp.SetInt("dirty", int64(rep.Dirty))
	sp.SetInt("verified", int64(rep.Verified))
	if rep.RepairFallback != "" {
		sp.SetStr("repair_fallback", rep.RepairFallback)
	}
}

// VerifyFull re-runs the active scheme's verifier over the whole
// network with the current certificates (a fresh engine, so it is valid
// right after mutations). It is the parity baseline for tests: an
// uncertified session has no certificates, so every node sees a
// zero-length certificate and rejects (vacuously accepting only on the
// empty network).
func (s *Session) VerifyFull() *dist.Outcome {
	return dist.NewEngine(s.g, s.engineOpts...).RunPLS(s.certs, s.active.Verify)
}

// netBatch is the net effect of one batch: updates that cancel inside
// the batch (an edge added then removed) disappear.
type netBatch struct {
	addedNodes   []graph.ID
	addedEdges   [][2]graph.ID // by identifier, in batch order
	removedEdges [][2]graph.ID
}

func (nb *netBatch) empty() bool {
	return len(nb.addedNodes) == 0 && len(nb.addedEdges) == 0 && len(nb.removedEdges) == 0
}

func normPair(a, b graph.ID) [2]graph.ID {
	if a > b {
		a, b = b, a
	}
	return [2]graph.ID{a, b}
}

// validate simulates the batch against the current graph without
// mutating it, rejecting structurally invalid updates, and computes the
// net effect.
func (s *Session) validate(batch []Update) (*netBatch, error) {
	newNodes := make(map[graph.ID]bool)
	// overlay: +1 edge present (added), -1 absent (removed); missing
	// entries defer to the graph.
	overlay := make(map[[2]graph.ID]int8)
	present := func(id graph.ID) bool {
		if newNodes[id] {
			return true
		}
		_, ok := s.g.IndexOf(id)
		return ok
	}
	hasEdge := func(p [2]graph.ID) bool {
		if st, ok := overlay[p]; ok {
			return st > 0
		}
		ia, ok1 := s.g.IndexOf(p[0])
		ib, ok2 := s.g.IndexOf(p[1])
		return ok1 && ok2 && s.g.HasEdge(ia, ib)
	}
	for i, u := range batch {
		switch u.Op {
		case AddNode:
			if present(u.A) {
				return nil, fmt.Errorf("dynamic: update %d: node %d already exists", i, u.A)
			}
			newNodes[u.A] = true
		case AddEdge:
			if u.A == u.B {
				return nil, fmt.Errorf("dynamic: update %d: self-loop at %d", i, u.A)
			}
			if !present(u.A) || !present(u.B) {
				return nil, fmt.Errorf("dynamic: update %d: unknown endpoint in {%d,%d}", i, u.A, u.B)
			}
			p := normPair(u.A, u.B)
			if hasEdge(p) {
				return nil, fmt.Errorf("dynamic: update %d: duplicate edge {%d,%d}", i, u.A, u.B)
			}
			overlay[p] = 1
		case RemoveEdge:
			p := normPair(u.A, u.B)
			if !hasEdge(p) {
				return nil, fmt.Errorf("dynamic: update %d: no edge {%d,%d} to remove", i, u.A, u.B)
			}
			overlay[p] = -1
		default:
			return nil, fmt.Errorf("dynamic: update %d: unknown op %d", i, u.Op)
		}
	}
	nb := &netBatch{}
	for id := range newNodes {
		nb.addedNodes = append(nb.addedNodes, id)
	}
	sort.Slice(nb.addedNodes, func(i, j int) bool { return nb.addedNodes[i] < nb.addedNodes[j] })
	pairs := make([][2]graph.ID, 0, len(overlay))
	for p := range overlay {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		st := overlay[p]
		ia, ok1 := s.g.IndexOf(p[0])
		ib, ok2 := s.g.IndexOf(p[1])
		before := ok1 && ok2 && s.g.HasEdge(ia, ib)
		switch {
		case st > 0 && !before:
			nb.addedEdges = append(nb.addedEdges, p)
		case st < 0 && before:
			nb.removedEdges = append(nb.removedEdges, p)
		}
	}
	return nb, nil
}

// applyToGraph commits a validated batch. It cannot fail.
func (s *Session) applyToGraph(batch []Update) {
	for _, u := range batch {
		switch u.Op {
		case AddNode:
			s.g.MustAddNode(u.A)
		case AddEdge:
			ia, _ := s.g.IndexOf(u.A)
			ib, _ := s.g.IndexOf(u.B)
			s.g.MustAddEdge(ia, ib)
		case RemoveEdge:
			ia, _ := s.g.IndexOf(u.A)
			ib, _ := s.g.IndexOf(u.B)
			s.g.RemoveEdge(ia, ib)
		}
	}
}

// touchedIdxs returns the indices of the endpoints of net-changed edges.
func (s *Session) touchedIdxs(nb *netBatch) []int {
	var out []int
	add := func(id graph.ID) {
		if idx, ok := s.g.IndexOf(id); ok {
			out = append(out, idx)
		}
	}
	for _, p := range nb.addedEdges {
		add(p[0])
		add(p[1])
	}
	for _, p := range nb.removedEdges {
		add(p[0])
		add(p[1])
	}
	for _, id := range nb.addedNodes {
		add(id)
	}
	return out
}

// frontierOf closes the dirty set: nodes with changed certificates plus
// their neighbors (whose views contain the changed certificates) plus
// the endpoints of changed edges (whose views changed shape).
func (s *Session) frontierOf(changed, touched []int) []int {
	seen := make(map[int]bool, 2*len(changed)+len(touched))
	var out []int
	add := func(u int) {
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	for _, u := range changed {
		add(u)
		for _, v := range s.g.Neighbors(u) {
			add(v)
		}
	}
	for _, u := range touched {
		add(u)
	}
	return out
}

// changedIdxs returns, in index order, the nodes whose certificates
// differ between two assignments of the live graph.
func (s *Session) changedIdxs(old, cur map[graph.ID]bits.Certificate) []int {
	var out []int
	for v := 0; v < s.g.N(); v++ {
		id := s.g.IDOf(v)
		if !old[id].Equal(cur[id]) {
			out = append(out, v)
		}
	}
	return out
}

// smallFrontier returns the frontier of changed and touched if it holds
// at most half of the nodes, and nil otherwise. A frontier sweep reads
// each neighbor's certificate from the assignment map, where a full
// sweep resolves every certificate once, so per node it costs more. A
// frontier of every node took 1.07-1.16x a full sweep, of three
// quarters of them 0.83-1.03x, and of half of them 0.55-0.73x
// (non-planarity at n=200, planarity at n=2000 and n=30000; medians of
// interleaved runs on one core, building the frontier included).
func (s *Session) smallFrontier(changed, touched []int) []int {
	n := s.g.N()
	if 2*len(changed) > n {
		return nil
	}
	if f := s.frontierOf(changed, touched); 2*len(f) <= n {
		return f
	}
	return nil
}

// ensureOwnedCerts copy-on-writes the certificate map when it is shared
// with a cache entry.
func (s *Session) ensureOwnedCerts() {
	if s.certsOwn || s.certs == nil {
		return
	}
	clone := make(map[graph.ID]bits.Certificate, len(s.certs))
	for id, c := range s.certs {
		clone[id] = c
	}
	s.certs = clone
	s.certsOwn = true
}

// tryRepair attempts a localized repair + frontier verification.
// It reports whether the batch was fully absorbed.
func (s *Session) tryRepair(nb *netBatch, rep *Report) bool {
	switch {
	case s.threshold < 0:
		rep.RepairFallback = "repair disabled"
		return false
	case !s.certified:
		rep.RepairFallback = "no certified base state"
		return false
	case len(nb.addedNodes) > 0:
		rep.RepairFallback = "node additions change n in every certificate"
		return false
	}
	rsp := s.span.Child("repair")
	newCerts, changed, ok, reason := s.repair(nb, rsp)
	rsp.SetInt("changed", int64(len(changed)))
	if !ok {
		rsp.SetStr("fallback", reason)
		rsp.End()
		rep.RepairFallback = reason
		return false
	}
	rsp.End()
	s.ensureOwnedCerts()
	// Swap the new certificates in; newCerts keeps the ones they replace.
	for id, c := range newCerts {
		newCerts[id], s.certs[id] = s.certs[id], c
	}
	frontier := s.frontierOf(changed, s.touchedIdxs(nb))
	out := dist.NewEngine(s.g, s.flushOpts()...).RunPLSSubset(s.certs, s.active.Verify, frontier)
	rep.Dirty = len(changed)
	rep.Verified = out.N
	rep.Outcome = out
	if !out.AllAccept() {
		// The repair produced a locally rejected assignment; demote to a
		// re-prove. Putting the replaced certificates back keeps s.certs
		// the assignment accepted before the batch, which the re-prove's
		// frontier sweep diffs against. The state was mutated by the
		// failed repair and will be rebuilt there.
		maps.Copy(s.certs, newCerts)
		rep.RepairFallback = fmt.Sprintf("frontier rejected at node %d", out.Rejecting[0])
		rep.Outcome = nil
		rep.Dirty, rep.Verified = 0, 0
		return false
	}
	rep.Mode = ModeRepair
	rep.Accepted = true
	rep.Scheme = s.active.Name()
	return true
}

// repair runs the repair, first decoding the state, as a child of rsp,
// if the session has none.
func (s *Session) repair(nb *netBatch, rsp *obs.Span) (map[graph.ID]bits.Certificate, []int, bool, string) {
	if s.state == nil {
		c := rsp.Child(obs.SpanRepairState)
		st, err := s.decodeState()
		c.End()
		if err != nil {
			return nil, nil, false, "repair state: " + err.Error()
		}
		s.state = st
	}
	return s.state.repair(nb, s.threshold)
}

// tryCache adopts a previously certified assignment for the current
// fingerprint. It reports whether the batch was fully absorbed.
func (s *Session) tryCache(nb *netBatch, rep *Report) bool {
	entry := s.cache.lookup(s.cacheKey())
	if entry == nil {
		return false
	}
	// Adopt the snapshot copy-on-write; the repair state describes the
	// old assignment, and the next repair decodes the adopted one's.
	s.certs = entry.certs
	s.certsOwn = false
	s.active = entry.scheme
	s.state = nil
	s.certified = true
	// Sanity pass over the update endpoints: cheap, and demotes
	// fingerprint collisions to a re-prove instead of an accept.
	out := dist.NewEngine(s.g, s.flushOpts()...).RunPLSSubset(s.certs, s.active.Verify, s.touchedIdxs(nb))
	if !out.AllAccept() {
		s.cache.evict(s.cacheKey())
		s.certified = false
		return false
	}
	rep.Mode = ModeCache
	rep.Accepted = true
	rep.Scheme = s.active.Name()
	rep.Verified = out.N
	rep.Outcome = out
	rep.CacheGeneration = entry.gen
	return true
}

// reprove runs the full prover (flipping to the counterpart scheme when
// the active one's class no longer contains the graph), verifies the new
// assignment, replaces the repair state, and stores the certified
// assignment in the cache. A planarity re-prove of the batch nb starts
// from the embedding the live certificates encode when nb allows it
// (see keptRotation); if the sweep rejects what it yields, the scheme
// is proved again from the LR test's embedding.
//
// The sweep is a frontier sweep when the session holds an accepted
// assignment, the new certificates are for the same scheme and nb adds
// no node: the nodes whose certificates differ from the accepted ones,
// their neighbors and the endpoints of nb's edges are verified, which
// decides global acceptance exactly (see Frontier soundness in the
// package documentation). Otherwise the sweep is full: a new node
// changes n in every certificate, and a frontier over most of the graph
// costs more than a full sweep (see smallFrontier).
func (s *Session) reprove(rep *Report, nb *netBatch) {
	var base map[graph.ID]bits.Certificate // s.active's accepted assignment before nb
	var touched []int
	if s.certified && nb != nil && len(nb.addedNodes) == 0 {
		base, touched = s.certs, s.touchedIdxs(nb)
	}
	order := []pls.Scheme{s.active}
	if other := s.counterpartOf(s.active); other != nil {
		order = append(order, other)
	}
	var firstErr error
	for i := 0; i < len(order); i++ {
		sch := order[i]
		pv := s.span.Child(obs.SpanProve)
		pv.SetStr("scheme", sch.Name())
		certs, st, kept, err := s.prove(sch, pv, nb)
		nb = nil // only the active scheme's first attempt keeps the embedding
		if err != nil {
			pv.SetStr("error", err.Error())
			pv.End()
			if firstErr == nil {
				firstErr = err
			}
			if errors.Is(err, pls.ErrNotInClass) {
				continue
			}
			break
		}
		pv.SetInt("certs", int64(len(certs)))
		pv.End()
		dirty, frontier := len(certs), []int(nil)
		if base != nil && i == 0 { // order[0] is s.active
			changed := s.changedIdxs(base, certs)
			dirty, frontier = len(changed), s.smallFrontier(changed, touched)
		}
		pv.SetInt("changed", int64(dirty))
		eng := dist.NewEngine(s.g, s.flushOpts()...)
		var out *dist.Outcome
		if frontier != nil {
			out = eng.RunPLSSubset(certs, sch.Verify, frontier)
		} else {
			out = eng.RunPLS(certs, sch.Verify)
		}
		if kept && !out.AllAccept() {
			i-- // prove sch again, from the LR test's embedding
			continue
		}
		s.active = sch
		s.certs = certs
		s.certsOwn = true
		s.state = st
		rep.Mode = ModeReprove
		if i > 0 {
			rep.Mode = ModeFlip
		}
		rep.Scheme = sch.Name()
		rep.Accepted = out.AllAccept()
		rep.Outcome = out
		rep.FullVerify = frontier == nil
		rep.Verified = out.N
		rep.Dirty = dirty
		s.certified = rep.Accepted
		if rep.Accepted {
			s.cache.store(s.cacheKey(), &cacheEntry{scheme: sch, certs: certs, gen: s.gen})
			// The stored entry shares the map; future repairs must
			// copy-on-write.
			s.certsOwn = false
		}
		return
	}
	s.certs = nil
	s.certsOwn = true
	s.state = nil
	s.certified = false
	rep.Mode = ModeUncertified
	rep.Scheme = s.active.Name()
	rep.Accepted = false
	rep.ProveErr = firstErr
}

// counterpartOf returns the scheme to flip to from sch, or nil.
func (s *Session) counterpartOf(sch pls.Scheme) pls.Scheme {
	if s.counterpart == nil {
		return nil
	}
	if sch == s.scheme {
		return s.counterpart
	}
	return s.scheme
}

// prove runs the scheme's prover. The planarity and non-planarity
// provers hand their certificate objects straight to the repair-state
// constructor, so a re-prove does not decode what it just encoded; the
// planarity prover records its steps as children of pv, and whether it
// kept the certified embedding for nb or ran the LR test as pv's
// embedding attribute. The spanning-tree scheme's state is decoded at
// its first repair attempt, as after a cache adoption.
func (s *Session) prove(sch pls.Scheme, pv *obs.Span, nb *netBatch) (certs map[graph.ID]bits.Certificate, st repairState, kept bool, err error) {
	switch sch.(type) {
	case core.PlanarScheme:
		var objs []core.PlanarCert
		objs, certs, kept, err = core.ProvePlanarFrom(s.g, s.keptRotation(nb, pv), pv)
		embedding := "lr"
		if kept {
			embedding = "kept"
		}
		pv.SetStr("embedding", embedding)
		if err == nil {
			c := pv.Child(obs.SpanRepairState)
			st, err = newPlanarState(s.g, objs)
			c.End()
		}
	case core.NonPlanarScheme:
		var objs []core.NonPlanarCert
		if objs, certs, err = core.ProveNonPlanar(s.g); err == nil {
			c := pv.Child(obs.SpanRepairState)
			st, err = newTreeRepair(s.g, objs)
			c.End()
		}
	default:
		certs, err = sch.Prove(s.g)
	}
	return certs, st, kept, err
}

// decodeState builds the repair state the live assignment implies.
func (s *Session) decodeState() (repairState, error) {
	switch s.active.(type) {
	case core.PlanarScheme:
		p, err := s.decodePlanarState(s.g.N())
		if err != nil {
			return nil, err
		}
		return p, nil
	case core.NonPlanarScheme:
		return decodeInto(s, core.DecodeNonPlanarCert, newTreeRepair)
	case pls.SpanningTreeScheme:
		return decodeInto(s, pls.DecodeTreeCert, newTreeRepair)
	}
	return nil, fmt.Errorf("no localized repair under %s", s.active.Name())
}

// decodePlanarState builds the planarity repair state from the live
// certificates of nodes 0..n-1.
func (s *Session) decodePlanarState(n int) (*planarState, error) {
	objs, err := core.DecodePlanarCerts(s.g, n, s.certs)
	if err != nil {
		return nil, err
	}
	return newPlanarState(s.g, objs)
}

// decodeInto decodes every live certificate, by node index, and builds
// a repair state from the objects.
func decodeInto[T any, S repairState](s *Session, decode func(*bits.Reader) (*T, error),
	build func(*graph.Graph, []T) (S, error)) (repairState, error) {
	objs := make([]T, s.g.N())
	for v := range objs {
		id := s.g.IDOf(v)
		obj, err := decode(s.certs[id].Reader())
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		objs[v] = *obj
	}
	return build(s.g, objs)
}

// CheckRepairState reports whether the repair state rebuilt from the
// live certificates differs from the one patched batch by batch. It
// exists for tests. Each rank's chords are compared as sets, on sorted
// copies, since the certificates do not fix that order and no repair
// uses it; the live state is not modified.
func (s *Session) CheckRepairState() error {
	if s.state == nil {
		return nil
	}
	rebuilt, err := s.decodeState()
	if err != nil {
		return fmt.Errorf("dynamic: rebuilding repair state: %w", err)
	}
	if !reflect.DeepEqual(sortedChords(rebuilt), sortedChords(s.state)) {
		return errors.New("dynamic: repair state rebuilt from the certificates differs from the live state")
	}
	return nil
}

// sortedChords returns a planarity state whose byRank runs are sorted
// copies of st's (sharing everything else), and any other state as is.
func sortedChords(st repairState) repairState {
	p, ok := st.(*planarState)
	if !ok {
		return st
	}
	q := *p
	q.byRank = make([][]graph.Edge, len(p.byRank))
	for r, es := range p.byRank {
		q.byRank[r] = slices.SortedFunc(slices.Values(es), func(a, b graph.Edge) int {
			return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
		})
	}
	return &q
}

func (s *Session) cacheKey() cacheKey {
	return cacheKey{fp: s.fp, n: s.g.N(), m: s.g.M()}
}
