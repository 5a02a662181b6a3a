package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// spec is one workload: how many sessions on how large a graph, how
// often the client audits, and the generator of each session's update
// stream.
type spec struct {
	name     string
	sessions int
	nodes    int
	// auditEvery: a client audits a session (a full verification
	// sweep) once the session has acked auditEvery batches since its
	// last audit and its network is in a state the stream calls
	// auditable. auditBurst is how many audits it then sends in a row.
	auditEvery int
	auditBurst int
	// setups and boots are how many set-ups and crash-shaped
	// recoveries a run times; setup_s and recover_ref are their medians.
	// A run needs at least 2 set-ups: the first one builds the crash
	// state, the last one serves the timed phase.
	setups int
	boots  int
	// replay is how many of session 0's recorded batches a traced run
	// replays through dynamic.Session to count allocations per update.
	replay    int
	newStream func(base *graph.Graph, rng *rand.Rand) stream
}

// workloads are the benchmark's traffic mixes; README.md says why each
// exists and which layer metrics it should move.
var workloads = []spec{
	{name: "repair-stream", sessions: 8, nodes: 2000, auditEvery: 15, auditBurst: 1, setups: 7, boots: 9, replay: 128, newStream: newRepairStream},
	{name: "big-graph", sessions: 1, nodes: 30000, auditEvery: 1, auditBurst: 3, setups: 3, boots: 5, replay: 3, newStream: newBigStream},
	{name: "nonplanar-churn", sessions: 8, nodes: 200, auditEvery: 4, auditBurst: 1, setups: 25, boots: 9, replay: 32, newStream: newChurnStream},
}

// smokeSizes shrink every workload so the benchmark's own tests run the
// whole pipeline, oracles and traced run included, in seconds.
var smokeSizes = map[string][2]int{ // sessions, nodes
	"repair-stream":   {2, 300},
	"big-graph":       {1, 3000},
	"nonplanar-churn": {2, 60},
}

func lookupSpec(name string, smoke bool) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			if smoke {
				sz := smokeSizes[name]
				w.sessions, w.nodes = sz[0], sz[1]
			}
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// batch is one generated update batch with the verdict the independent
// oracle expects the daemon to reach on the resulting network.
type batch struct {
	updates    []planarcert.Update
	wantPlanar bool
}

// stream generates one session's update batches. It owns a mirror of
// the session's network, advanced as each batch is generated, so the
// stream depends only on the seed — never on the daemon's answers.
type stream interface {
	next() batch
	mirror() *mirror
	// planar is the oracle verdict for the mirror's current network.
	planar() bool
	// auditable reports whether audits sample the mirror's current
	// network, so that every audit of a workload sweeps the same kind
	// of certificate.
	auditable() bool
	// tailReady reports whether the next batch is the kind a
	// crash-shaped WAL tail holds, so every run recovers the same kind
	// of batch.
	tailReady() bool
}

// rngOf derives a generator from a label.
func rngOf(format string, args ...interface{}) *rand.Rand {
	h := sha256.New()
	fmt.Fprintf(h, format, args...)
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h.Sum(nil)))))
}

// recoverySeed drives the update streams of the set-up that builds a
// run's crash state, so every run recovers the same batches whatever
// its --seed.
const recoverySeed = -1

// newStreams builds every session's stream for one run. The run seed
// drives the update streams. The networks depend only on the workload
// and the session: a stacked triangulation's shape moves the prover's
// cost by about 10% at n=50000, which would otherwise add to the
// run-to-run spread.
func newStreams(w spec, seed int64) []stream {
	out := make([]stream, w.sessions)
	for i := range out {
		base := gen.StackedTriangulation(w.nodes, rngOf("graph/%s/%d", w.name, i))
		out[i] = w.newStream(base, rngOf("stream/%s/%d/%d", w.name, seed, i))
	}
	return out
}

// streamDigest hashes the first k request frames of every session's
// stream, in session order. Equal seeds must give equal digests and
// different seeds different ones; a spread in the daemon's absorption
// mode mix is then the program's, not the generator's.
func streamDigest(w spec, seed int64, k int) (string, error) {
	h := sha256.New()
	for _, st := range newStreams(w, seed) {
		for i := 0; i < k; i++ {
			frame, err := planarcert.EncodeUpdatesFrame("apply", st.next().updates)
			if err != nil {
				return "", err
			}
			hashFrame(h, frame)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func hashFrame(h hash.Hash, frame []byte) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(frame)))
	h.Write(n[:])
	h.Write(frame)
}

// pair is an undirected edge, smaller identifier first.
type pair [2]int64

func mkPair(a, b int64) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// edgeSet supports O(1) insert, delete, membership and uniform choice.
type edgeSet struct {
	list []pair
	pos  map[pair]int
}

func newEdgeSet(capacity int) edgeSet {
	return edgeSet{pos: make(map[pair]int, capacity)}
}

func (s *edgeSet) len() int                 { return len(s.list) }
func (s *edgeSet) has(p pair) bool          { _, ok := s.pos[p]; return ok }
func (s *edgeSet) pick(rng *rand.Rand) pair { return s.list[rng.Intn(len(s.list))] }

func (s *edgeSet) add(p pair) {
	s.pos[p] = len(s.list)
	s.list = append(s.list, p)
}

func (s *edgeSet) remove(p pair) {
	i := s.pos[p]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.pos[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.pos, p)
}

// mirror is the benchmark's own copy of a session's network, on node
// identifiers 0..n-1. It is what every daemon answer is checked against.
type mirror struct {
	adj   [][]int64
	edges edgeSet
}

func mirrorOf(g *graph.Graph) *mirror {
	m := &mirror{adj: make([][]int64, g.N()), edges: newEdgeSet(g.M())}
	for _, e := range g.Edges() {
		m.addEdge(int64(g.IDOf(e.U)), int64(g.IDOf(e.V)))
	}
	return m
}

func (m *mirror) n() int    { return len(m.adj) }
func (m *mirror) size() int { return m.edges.len() }

func (m *mirror) addNode() int64 {
	m.adj = append(m.adj, nil)
	return int64(len(m.adj) - 1)
}

func (m *mirror) addEdge(a, b int64) {
	m.edges.add(mkPair(a, b))
	m.adj[a] = append(m.adj[a], b)
	m.adj[b] = append(m.adj[b], a)
}

func (m *mirror) removeEdge(a, b int64) {
	m.edges.remove(mkPair(a, b))
	m.adj[a] = dropNeighbor(m.adj[a], b)
	m.adj[b] = dropNeighbor(m.adj[b], a)
}

func dropNeighbor(ns []int64, x int64) []int64 {
	for i, v := range ns {
		if v == x {
			ns[i] = ns[len(ns)-1]
			return ns[:len(ns)-1]
		}
	}
	return ns
}

// connectedWithout reports whether a still reaches b once edge {a,b} is
// gone: removing it then keeps the network connected.
func (m *mirror) connectedWithout(a, b int64) bool {
	seen := map[int64]bool{a: true}
	queue := []int64{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range m.adj[u] {
			if (u == a && v == b) || seen[v] {
				continue
			}
			if v == b {
				return true
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return false
}

// sortedEdges lists the edges in ascending order.
func (m *mirror) sortedEdges() [][2]planarcert.NodeID {
	out := make([][2]planarcert.NodeID, len(m.edges.list))
	for i, p := range m.edges.list {
		out[i] = [2]planarcert.NodeID{planarcert.NodeID(p[0]), planarcert.NodeID(p[1])}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// network materialises the mirror through the public API.
func (m *mirror) network() (*planarcert.Network, error) {
	net := planarcert.NewNetwork()
	for id := 0; id < m.n(); id++ {
		if err := net.AddNode(planarcert.NodeID(id)); err != nil {
			return nil, err
		}
	}
	for _, p := range m.edges.list {
		if err := net.AddEdge(planarcert.NodeID(p[0]), planarcert.NodeID(p[1])); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// graph materialises the mirror for the layer measurements.
func (m *mirror) graph() *graph.Graph {
	g := graph.NewWithNodes(m.n())
	for _, p := range m.edges.list {
		g.MustAddEdge(int(p[0]), int(p[1]))
	}
	return g
}

// randomNonEdge draws a node pair that is not an edge of m and not in
// avoid.
func (m *mirror) randomNonEdge(rng *rand.Rand, avoid map[pair]bool) pair {
	for {
		a, b := int64(rng.Intn(m.n())), int64(rng.Intn(m.n()))
		if p := mkPair(a, b); a != b && !m.edges.has(p) && !avoid[p] {
			return p
		}
	}
}

// repairStream removes or re-adds one edge of a stacked triangulation
// per batch, never disconnecting it. Every state is a subgraph of the
// triangulation, so the oracle verdict is always planar.
type repairStream struct {
	m       *mirror
	rng     *rand.Rand
	removed edgeSet // triangulation edges currently absent
}

// maxRemoved bounds how far a repair stream drifts from its
// triangulation.
const maxRemoved = 64

func newRepairStream(base *graph.Graph, rng *rand.Rand) stream {
	return &repairStream{m: mirrorOf(base), rng: rng, removed: newEdgeSet(maxRemoved)}
}

func (s *repairStream) mirror() *mirror { return s.m }
func (s *repairStream) planar() bool    { return true }
func (s *repairStream) tailReady() bool { return true }
func (s *repairStream) auditable() bool { return true }

func (s *repairStream) next() batch {
	if s.removed.len() == maxRemoved || (s.removed.len() > 0 && s.rng.Intn(2) == 0) {
		p := s.removed.pick(s.rng)
		s.removed.remove(p)
		s.m.addEdge(p[0], p[1])
		return batch{updates: []planarcert.Update{planarcert.EdgeAdd(planarcert.NodeID(p[0]), planarcert.NodeID(p[1]))}, wantPlanar: true}
	}
	for {
		p := s.m.edges.pick(s.rng)
		if s.m.connectedWithout(p[0], p[1]) {
			s.m.removeEdge(p[0], p[1])
			s.removed.add(p)
			return batch{updates: []planarcert.Update{planarcert.EdgeRemove(planarcert.NodeID(p[0]), planarcert.NodeID(p[1]))}, wantPlanar: true}
		}
	}
}

// bigStream attaches one new leaf per batch to a large stacked
// triangulation: the network stays planar and connected, and n grows,
// so the daemon re-proves every batch.
type bigStream struct {
	m   *mirror
	rng *rand.Rand
}

func newBigStream(base *graph.Graph, rng *rand.Rand) stream {
	return &bigStream{m: mirrorOf(base), rng: rng}
}

func (s *bigStream) mirror() *mirror { return s.m }
func (s *bigStream) planar() bool    { return true }
func (s *bigStream) tailReady() bool { return true }
func (s *bigStream) auditable() bool { return true }

func (s *bigStream) next() batch {
	to := int64(s.rng.Intn(s.m.n()))
	leaf := s.m.addNode()
	s.m.addEdge(leaf, to)
	return batch{updates: []planarcert.Update{
		planarcert.NodeAdd(planarcert.NodeID(leaf)),
		planarcert.EdgeAdd(planarcert.NodeID(leaf), planarcert.NodeID(to)),
	}, wantPlanar: true}
}

// churnStream moves a maximal planar network across the planarity
// boundary in a four-batch cycle:
//
//	0: T−r → T+a     re-add r, add non-edge a  (planar → non-planar)
//	1: T+a → T+a'    swap the extra edge       (non-planar, witness broken)
//	2: T+a' → T+a''  swap again
//	3: T+a'' → T−r'  drop the extra edge and a triangulation edge r'
//	                 (non-planar → planar)
//
// Every non-planar state has 3n−5 > 3n−6 edges (Euler's bound) and every
// planar state is a subgraph of T, so the oracle decides each one. Any
// Kuratowski subgraph of T+a contains a, so each swap and each return
// to planar invalidates the witness: three of four batches extract a
// Kuratowski witness. Recently used edges are not drawn again, so no
// topology repeats within the daemon's certificate-cache horizon.
type churnStream struct {
	m        *mirror
	rng      *rand.Rand
	phase    int
	extra    pair // the added non-edge (phases 1–3)
	dropped  pair // the removed triangulation edge (phase 0, after the first cycle)
	hasDrop  bool
	recent   map[pair]bool
	recentQ  []pair
	nonplane bool
}

// churnRecent is how many recently used edges a churn stream avoids;
// it exceeds the daemon's certificate-cache capacity several times over.
const churnRecent = 64

func newChurnStream(base *graph.Graph, rng *rand.Rand) stream {
	return &churnStream{m: mirrorOf(base), rng: rng, recent: make(map[pair]bool)}
}

func (s *churnStream) mirror() *mirror { return s.m }
func (s *churnStream) planar() bool    { return !s.nonplane }

// tailReady holds before a swap: recovery restores a non-planar
// snapshot and replays one Kuratowski re-prove.
func (s *churnStream) tailReady() bool { return s.phase == 1 }

// auditable holds in the planar state that ends each cycle. A
// planarity sweep at n=200 costs about twice a non-planarity sweep;
// auditing both kinds would put audit_p50_ref on the boundary between
// the two.
func (s *churnStream) auditable() bool { return !s.nonplane }

func (s *churnStream) remember(p pair) {
	s.recent[p] = true
	s.recentQ = append(s.recentQ, p)
	if len(s.recentQ) > churnRecent {
		delete(s.recent, s.recentQ[0])
		s.recentQ = s.recentQ[1:]
	}
}

func (s *churnStream) next() batch {
	var ups []planarcert.Update
	add := func(p pair) {
		s.m.addEdge(p[0], p[1])
		ups = append(ups, planarcert.EdgeAdd(planarcert.NodeID(p[0]), planarcert.NodeID(p[1])))
	}
	remove := func(p pair) {
		s.m.removeEdge(p[0], p[1])
		ups = append(ups, planarcert.EdgeRemove(planarcert.NodeID(p[0]), planarcert.NodeID(p[1])))
	}
	switch s.phase {
	case 0:
		if s.hasDrop {
			add(s.dropped)
			s.hasDrop = false
		}
		s.extra = s.m.randomNonEdge(s.rng, s.recent)
		s.remember(s.extra)
		add(s.extra)
		s.nonplane = true
	case 1, 2:
		remove(s.extra)
		s.extra = s.m.randomNonEdge(s.rng, s.recent)
		s.remember(s.extra)
		add(s.extra)
	case 3:
		remove(s.extra)
		for {
			p := s.m.edges.pick(s.rng)
			if !s.recent[p] {
				s.dropped, s.hasDrop = p, true
				s.remember(p)
				remove(p)
				break
			}
		}
		s.nonplane = false
	}
	s.phase = (s.phase + 1) % 4
	return batch{updates: ups, wantPlanar: !s.nonplane}
}
