// Package planarcert is a library for compact distributed certification
// of planar graphs, implementing Feuilloley, Fraigniaud, Rapaport,
// Rémila, Montealegre and Todinca, "Compact Distributed Certification of
// Planar Graphs" (PODC 2020, arXiv:2005.05863).
//
// The library provides:
//
//   - proof-labeling schemes (PLS) with O(log n)-bit certificates for
//     planarity (Theorem 1), path-outerplanarity (Lemma 2),
//     non-planarity (the folklore Kuratowski scheme of Section 2), and
//     outerplanarity (the conclusion's extension);
//   - a linear-time planarity test with combinatorial-embedding
//     extraction and Kuratowski-subgraph witnesses;
//   - a synchronous CONGEST-style network simulator in which the 1-round
//     verification executes;
//   - the lower-bound constructions of Theorem 2 and the executable
//     pigeonhole attack (internal/lowerbound);
//   - a dMAM interactive-proof baseline in the style of Naor, Parter and
//     Yogev (internal/interactive).
//
// Quick start:
//
//	net := planarcert.NewNetwork()
//	for id := planarcert.NodeID(0); id < 4; id++ {
//		net.AddNode(id)
//	}
//	net.AddEdge(0, 1) // ... build any connected graph
//	certs, err := planarcert.Certify(net, planarcert.SchemePlanarity)
//	report := planarcert.Verify(net, planarcert.SchemePlanarity, certs)
//	fmt.Println(report.Accepted, report.MaxCertBits)
package planarcert

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"iter"
	"maps"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/dynamic"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/interactive"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
	"github.com/planarcert/planarcert/internal/preprocess"
	"github.com/planarcert/planarcert/internal/qos"
	"github.com/planarcert/planarcert/internal/report"
)

// NodeID identifies a node; identifiers are unique and drawn from a range
// polynomial in the network size, as in the paper's model.
type NodeID = graph.ID

// Certificate is a bit-exact certificate as assigned by a prover.
type Certificate = bits.Certificate

// Certificates maps every node to its certificate.
type Certificates map[NodeID]Certificate

// Network is an undirected connected network under certification.
type Network struct {
	g *graph.Graph
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{g: graph.New(0)} }

// AddNode adds a node with the given identifier.
func (n *Network) AddNode(id NodeID) error {
	_, err := n.g.AddNode(id)
	return err
}

// AddEdge adds an undirected edge between two existing nodes, given by
// their identifiers.
func (n *Network) AddEdge(a, b NodeID) error {
	ia, ok1 := n.g.IndexOf(a)
	ib, ok2 := n.g.IndexOf(b)
	if !ok1 || !ok2 {
		return fmt.Errorf("planarcert: unknown node in edge {%d,%d}", a, b)
	}
	return n.g.AddEdge(ia, ib)
}

// RemoveEdge removes the edge between a and b if present.
func (n *Network) RemoveEdge(a, b NodeID) bool {
	ia, ok1 := n.g.IndexOf(a)
	ib, ok2 := n.g.IndexOf(b)
	if !ok1 || !ok2 {
		return false
	}
	return n.g.RemoveEdge(ia, ib)
}

// HasNode reports whether a node with the given identifier exists.
func (n *Network) HasNode(id NodeID) bool {
	_, ok := n.g.IndexOf(id)
	return ok
}

// HasEdge reports whether the edge {a, b} exists.
func (n *Network) HasEdge(a, b NodeID) bool {
	ia, ok1 := n.g.IndexOf(a)
	ib, ok2 := n.g.IndexOf(b)
	return ok1 && ok2 && n.g.HasEdge(ia, ib)
}

// N returns the number of nodes.
func (n *Network) N() int { return n.g.N() }

// M returns the number of edges.
func (n *Network) M() int { return n.g.M() }

// Connected reports whether the network is connected.
func (n *Network) Connected() bool { return n.g.Connected() }

// IDs returns all node identifiers in insertion order.
func (n *Network) IDs() []NodeID { return n.g.IDs() }

// Edges returns all undirected edges as identifier pairs, each with the
// smaller identifier first. Edges are sorted by the insertion order of
// their endpoints: first by the endpoint added earlier, then by the one
// added later.
func (n *Network) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, n.g.M())
	for _, e := range n.g.Edges() {
		a, b := n.g.IDOf(e.U), n.g.IDOf(e.V)
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]NodeID{a, b})
	}
	return out
}

// Neighbors returns the identifiers of a node's neighbors, sorted.
func (n *Network) Neighbors(id NodeID) []NodeID {
	idx, ok := n.g.IndexOf(id)
	if !ok {
		return nil
	}
	out := make([]NodeID, 0, n.g.Degree(idx))
	for _, v := range n.g.Neighbors(idx) {
		out = append(out, n.g.IDOf(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy.
func (n *Network) Clone() *Network { return &Network{g: n.g.Clone()} }

// Fingerprint returns the network's 128-bit order-independent topology
// fingerprint: the key under which sessions cache and snapshot
// certified topologies. Two networks with the same node identifiers and
// the same edges share a fingerprint regardless of construction order.
func (n *Network) Fingerprint() (hi, lo uint64) { return dynamic.FingerprintOf(n.g) }

// FromGraph wraps an internal graph (used by the cmd tools and tests
// inside this module).
func FromGraph(g *graph.Graph) *Network { return &Network{g: g} }

// Graph exposes the underlying graph to sibling packages in this module.
func (n *Network) Graph() *graph.Graph { return n.g }

// IsPlanar tests planarity (left-right algorithm, O(n)).
func (n *Network) IsPlanar() bool { return planarity.IsPlanar(n.g) }

// IsOuterplanar tests outerplanarity via the apex characterisation.
func (n *Network) IsOuterplanar() bool { return planarity.Outerplanar(n.g) }

// KuratowskiWitness is a subdivision of K5 or K3,3 proving non-planarity,
// expressed over node identifiers.
type KuratowskiWitness struct {
	Kind     string // "K5" or "K3,3"
	Branch   []NodeID
	Paths    [][]NodeID
	EdgeList [][2]NodeID
}

// Kuratowski extracts a non-planarity witness; it returns an error if the
// network is planar.
func (n *Network) Kuratowski() (*KuratowskiWitness, error) {
	w, err := planarity.Kuratowski(n.g)
	if err != nil {
		return nil, err
	}
	out := &KuratowskiWitness{Kind: w.Kind.String()}
	for _, b := range w.Branch {
		out.Branch = append(out.Branch, n.g.IDOf(b))
	}
	for _, p := range w.Paths {
		ids := make([]NodeID, len(p))
		for i, v := range p {
			ids[i] = n.g.IDOf(v)
		}
		out.Paths = append(out.Paths, ids)
	}
	for _, e := range w.Edges {
		out.EdgeList = append(out.EdgeList, [2]NodeID{n.g.IDOf(e.U), n.g.IDOf(e.V)})
	}
	return out, nil
}

// SchemeName selects one of the proof-labeling schemes.
type SchemeName = report.SchemeName

// Available schemes.
const (
	SchemePlanarity       SchemeName = "planarity"
	SchemeNonPlanarity    SchemeName = "non-planarity"
	SchemeOuterplanarity  SchemeName = "outerplanarity"
	SchemePathOuterplanar SchemeName = "path-outerplanar"
	SchemeSpanningTree    SchemeName = "spanning-tree"
	SchemePath            SchemeName = "path"
)

// ErrUnknownScheme is returned for unrecognised scheme names.
var ErrUnknownScheme = errors.New("planarcert: unknown scheme")

// Schemes lists the available scheme names.
func Schemes() []SchemeName {
	return []SchemeName{
		SchemePlanarity, SchemeNonPlanarity, SchemeOuterplanarity,
		SchemePathOuterplanar, SchemeSpanningTree, SchemePath,
	}
}

func schemeByName(name SchemeName) (pls.Scheme, error) {
	switch name {
	case SchemePlanarity:
		return core.PlanarScheme{}, nil
	case SchemeNonPlanarity:
		return core.NonPlanarScheme{}, nil
	case SchemeOuterplanarity:
		return core.OuterplanarScheme{}, nil
	case SchemePathOuterplanar:
		return core.POScheme{}, nil
	case SchemeSpanningTree:
		return pls.SpanningTreeScheme{}, nil
	case SchemePath:
		return pls.PathScheme{}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
}

// cloneCertificates deep-copies the n certificates of an assignment
// into a fresh map whose Data slices share no backing array with the
// input. The copies are carved from one slab, each capped at its own
// length so an append to one reallocates instead of running into the
// next.
func cloneCertificates(n int, certs iter.Seq2[NodeID, Certificate]) Certificates {
	out := make(Certificates, n)
	total := 0
	for _, c := range certs {
		total += len(c.Data)
	}
	slab := make([]byte, 0, total)
	for id, c := range certs {
		lo := len(slab)
		slab = append(slab, c.Data...)
		out[id] = Certificate{Data: slab[lo:len(slab):len(slab)], Bits: c.Bits}
	}
	return out
}

// Certify runs the honest prover of the named scheme on the network.
// For networks outside the scheme's class it returns an error wrapping
// ErrNotInClass semantics. The returned map and its byte slices are
// defensive copies: callers may mutate them freely without corrupting
// any scheme- or session-internal state.
func Certify(n *Network, name SchemeName) (Certificates, error) {
	s, err := schemeByName(name)
	if err != nil {
		return nil, err
	}
	certs, err := s.Prove(n.g)
	if err != nil {
		return nil, err
	}
	return cloneCertificates(len(certs), maps.All(certs)), nil
}

// Report summarises one verification round. The JSON field names are
// part of the planarcertd wire format.
type Report = report.Report

func reportOf(out *dist.Outcome) *Report {
	return &Report{
		Accepted:    out.AllAccept(),
		Rejecting:   out.Rejecting,
		Reasons:     out.Reasons,
		MaxCertBits: out.MaxCertBit,
		AvgCertBits: out.AvgCertBits(),
		Messages:    out.Messages,
		MaxMsgBits:  out.MaxMsgBit,
	}
}

// Verify runs the named scheme's 1-round distributed verification with
// the given (possibly adversarial) certificates.
func Verify(n *Network, name SchemeName, certs Certificates) (*Report, error) {
	return VerifyWith(n, name, certs, EngineConfig{})
}

// EngineConfig tunes the verification engine. The zero value picks the
// automatic mode: parallel execution across GOMAXPROCS workers on
// networks large enough to amortise the fan-out, sequential otherwise.
type EngineConfig struct {
	// Sequential forces single-goroutine verification.
	Sequential bool
	// Parallel forces worker-pool verification even on small networks.
	// Ignored if Sequential is set.
	Parallel bool
	// Workers bounds the worker pool (0 = GOMAXPROCS).
	Workers int
	// ShardSize is the number of consecutive nodes a worker claims at a
	// time (0 = the engine default).
	ShardSize int
	// FailFast stops verifying once any node has rejected. The report
	// still agrees with exhaustive mode on acceptance but may omit later
	// rejecting nodes.
	FailFast bool
	// Budget, when non-nil, draws this engine's extra parallel workers
	// from a shared pool, bounding the process-wide verification
	// parallelism across many concurrent sessions (the planarcertd
	// server gives every session the same budget). Verification never
	// blocks on an exhausted budget — it degrades toward sequential
	// execution instead.
	Budget *WorkerBudget
	// Claimant, when non-nil, draws the extra workers from the shared
	// budget under a named per-consumer identity and QoS class (see
	// WorkerBudget.Claimant): contended slots are granted by weighted
	// fair share across claimants instead of first-come-first-served.
	// Takes precedence over Budget.
	Claimant *BudgetClaimant
	// Span, when non-nil, attaches this engine's tracing output (sweep,
	// round, and budget-wait child spans) to the given parent span. Use
	// it for one-shot VerifyWith calls; sessions trace per batch via
	// Session.Trace, which overrides this for the flush it covers.
	Span *TraceSpan
}

// WorkerBudget is a shared, bounded pool of verification-worker slots.
// Pass the same budget in the EngineConfig of many sessions (or
// VerifyWith calls) to cap their combined parallel fan-out: each
// verification keeps one worker unconditionally and takes extra workers
// only while budget slots are free, so with S slots and E concurrent
// verifications at most S+E workers are in flight. A WorkerBudget is
// safe for concurrent use; nil means unlimited.
type WorkerBudget struct {
	b *dist.Budget
}

// NewWorkerBudget returns a budget with the given number of extra-worker
// slots (clamped up to 1) and default QoS weights.
func NewWorkerBudget(slots int) *WorkerBudget {
	return &WorkerBudget{b: dist.NewBudget(slots)}
}

// NewWorkerBudgetWeights returns a budget with the given slot count
// (clamped up to 1) and per-class fair-share weights; classes missing
// from the map keep their default weight (16:4:1 for
// interactive:batch:background).
func NewWorkerBudgetWeights(slots int, weights map[QoSClass]int) *WorkerBudget {
	return &WorkerBudget{b: dist.NewBudgetWeights(slots, weights)}
}

// Slots returns the configured slot count.
func (w *WorkerBudget) Slots() int { return w.b.Slots() }

// InUse returns the number of slots currently held by running
// verifications.
func (w *WorkerBudget) InUse() int { return w.b.InUse() }

// QueueDepth returns the number of sweeps currently waiting for a slot.
func (w *WorkerBudget) QueueDepth() int { return w.b.Scheduler().QueueDepth() }

// GrantsByClass returns the cumulative slot grants per QoS class, for
// metrics exporters.
func (w *WorkerBudget) GrantsByClass() map[QoSClass]uint64 {
	return w.b.Scheduler().Grants()
}

// Claimant mints a named consumer identity on the budget in the given
// QoS class. Engines configured with EngineConfig.Claimant compete for
// the budget's contended slots by weighted fair share: a freed slot
// goes to the waiting claimant with the smallest virtual time, so one
// claimant's storm of sweeps cannot starve the others. One claimant per
// session is the intended granularity.
func (w *WorkerBudget) Claimant(name string, class QoSClass) *BudgetClaimant {
	return &BudgetClaimant{c: w.b.Claimant(name, class)}
}

// BudgetClaimant is a per-consumer identity on a WorkerBudget carrying
// a QoS class (see WorkerBudget.Claimant). Safe for concurrent use.
type BudgetClaimant struct {
	c *qos.Claimant
}

// Class returns the claimant's QoS class.
func (b *BudgetClaimant) Class() QoSClass { return b.c.Class() }

// QoSClass is a quality-of-service class for fair-share scheduling:
// interactive traffic outweighs batch, which outweighs background.
type QoSClass = qos.Class

// The QoS classes, from most to least latency-sensitive.
const (
	// QoSInteractive is for latency-sensitive foreground sessions.
	QoSInteractive = qos.Interactive
	// QoSBatch is the default class for ordinary sessions.
	QoSBatch = qos.Batch
	// QoSBackground is for bulk work that should yield to everything
	// else.
	QoSBackground = qos.Background
)

// ParseQoSClass maps a class name ("interactive", "batch",
// "background") to its QoSClass.
func ParseQoSClass(s string) (QoSClass, error) { return qos.ParseClass(s) }

func (c EngineConfig) options() []dist.Option {
	var opts []dist.Option
	switch {
	case c.Sequential:
		opts = append(opts, dist.Sequential())
	case c.Parallel:
		opts = append(opts, dist.Parallel(c.Workers))
	case c.Workers > 0:
		opts = append(opts, dist.Workers(c.Workers))
	}
	if c.ShardSize > 0 {
		opts = append(opts, dist.ShardSize(c.ShardSize))
	}
	if c.FailFast {
		opts = append(opts, dist.FailFast())
	}
	switch {
	case c.Claimant != nil:
		opts = append(opts, dist.LimitClaimant(c.Claimant.c))
	case c.Budget != nil:
		opts = append(opts, dist.Limit(c.Budget.b))
	}
	if c.Span != nil {
		opts = append(opts, dist.WithSpan(c.Span))
	}
	return opts
}

// VerifyWith runs Verify on an engine configured by cfg, so callers can
// pin the execution mode (the benchmarks compare sequential against
// parallel on identical inputs) or trade complete rejection reports for
// fail-fast latency.
func VerifyWith(n *Network, name SchemeName, certs Certificates, cfg EngineConfig) (*Report, error) {
	s, err := schemeByName(name)
	if err != nil {
		return nil, err
	}
	eng := dist.NewEngine(n.g, cfg.options()...)
	return reportOf(eng.RunPLS(certs, s.Verify)), nil
}

// CertifyAndVerify is the honest end-to-end pipeline.
func CertifyAndVerify(n *Network, name SchemeName) (*Report, error) {
	certs, err := Certify(n, name)
	if err != nil {
		return nil, err
	}
	return Verify(n, name, certs)
}

// Broadcast floods an alarm from the given nodes and returns the number
// of synchronous rounds until every node is informed.
func (n *Network) Broadcast(sources []NodeID) (int, error) {
	idxs := make([]int, 0, len(sources))
	for _, id := range sources {
		idx, ok := n.g.IndexOf(id)
		if !ok {
			return 0, fmt.Errorf("planarcert: unknown source %d", id)
		}
		idxs = append(idxs, idx)
	}
	return dist.NewEngine(n.g).Broadcast(idxs)
}

// PreprocessReport summarises the cost of self-certification: the rounds,
// messages and bits the network spends computing its own certificates
// (leader election, topology convergecast, central proving at the leader,
// certificate downcast) — the paper's remark that no external prover is
// needed.
type PreprocessReport struct {
	Rounds     int
	Messages   int
	TotalBits  int
	MaxMsgBits int
	LeaderID   NodeID
}

// SelfCertify lets the network compute its own certificates in a
// distributed preprocessing phase, then returns them with the cost
// report. The certificates verify exactly like Certify's.
func SelfCertify(n *Network, name SchemeName) (Certificates, *PreprocessReport, error) {
	s, err := schemeByName(name)
	if err != nil {
		return nil, nil, err
	}
	certs, stats, err := preprocess.Run(s, n.g)
	if err != nil {
		return nil, nil, err
	}
	return cloneCertificates(len(certs), maps.All(certs)), &PreprocessReport{
		Rounds:     stats.Rounds,
		Messages:   stats.Messages,
		TotalBits:  stats.TotalBits,
		MaxMsgBits: stats.MaxMsgBit,
		LeaderID:   stats.LeaderID,
	}, nil
}

// DMAMReport summarises a dMAM interactive-proof execution for
// comparison with the PLS (Experiment E2).
type DMAMReport struct {
	Accepted     bool
	Interactions int
	RandomBits   int
	MaxCertBits  int
	SoundnessErr float64
}

// RunPlanarityDMAM executes the interactive baseline with the given seed
// for Arthur's challenge.
func RunPlanarityDMAM(n *Network, seed int64) (*DMAMReport, error) {
	st, err := interactive.Run(interactive.PlanarityDMAM{}, n.g, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &DMAMReport{
		Accepted:     st.Outcome.AllAccept(),
		Interactions: st.Interactions,
		RandomBits:   st.RandomBits,
		MaxCertBits:  st.MaxCertBit,
		SoundnessErr: st.SoundnessErr,
	}, nil
}

// ParseEdgeList reads a network from a text edge list: one "u v" pair of
// integer identifiers per line; blank lines and lines starting with '#'
// are ignored; isolated nodes can be declared on a line of their own.
func ParseEdgeList(r io.Reader) (*Network, error) {
	n := NewNetwork()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		ids := make([]NodeID, 0, 2)
		for _, f := range fields {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("planarcert: line %d: %w", line, err)
			}
			ids = append(ids, NodeID(v))
		}
		switch len(ids) {
		case 1:
			if _, ok := n.g.IndexOf(ids[0]); !ok {
				if err := n.AddNode(ids[0]); err != nil {
					return nil, err
				}
			}
		case 2:
			for _, id := range ids {
				if _, ok := n.g.IndexOf(id); !ok {
					if err := n.AddNode(id); err != nil {
						return nil, err
					}
				}
			}
			if !n.HasEdge(ids[0], ids[1]) {
				if err := n.AddEdge(ids[0], ids[1]); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("planarcert: line %d: want 1 or 2 ids, got %d", line, len(ids))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return n, nil
}

// WriteEdgeList writes the network in the ParseEdgeList format.
func (n *Network) WriteEdgeList(w io.Writer) error {
	for _, e := range n.g.Edges() {
		if _, err := fmt.Fprintf(w, "%d %d\n", n.g.IDOf(e.U), n.g.IDOf(e.V)); err != nil {
			return err
		}
	}
	for v := 0; v < n.g.N(); v++ {
		if n.g.Degree(v) == 0 {
			if _, err := fmt.Fprintf(w, "%d\n", n.g.IDOf(v)); err != nil {
				return err
			}
		}
	}
	return nil
}
