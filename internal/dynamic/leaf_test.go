package dynamic

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// leafBatch returns updates that attach k new nodes, each by one edge to
// a random existing node, with identifiers above every current one. With
// same set, all k hang at one node, so they share its last corner.
func leafBatch(s *Session, rng *rand.Rand, k int, same bool) []Update {
	next := slices.Max(s.g.IDs()) + 1
	to := s.g.IDOf(rng.Intn(s.g.N()))
	var batch []Update
	for i := range k {
		if !same {
			to = s.g.IDOf(rng.Intn(s.g.N()))
		}
		l := next + graph.ID(i)
		batch = append(batch, Update{Op: AddNode, A: l}, Update{Op: AddEdge, A: l, B: to})
	}
	return batch
}

// applyLeafRepair applies a batch that attaches leaves and asserts it was
// a repair whose sweep was full, that the whole network accepts, and
// that the patched state equals the one the certificates give.
func applyLeafRepair(t *testing.T, s *Session, batch []Update) {
	t.Helper()
	rep, err := s.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	n := s.g.N()
	if rep.Mode != ModeRepair || !rep.FullVerify || rep.Dirty != n || rep.Verified != n {
		t.Fatalf("gen %d, %v: %s (%s), dirty/verified/full %d/%d/%v, want a repair with a full sweep over n=%d",
			s.Generation(), batch, rep.Mode, rep.RepairFallback, rep.Dirty, rep.Verified, rep.FullVerify, n)
	}
	if out := s.VerifyFull(); !out.AllAccept() {
		id, reason, _ := out.FirstRejection()
		t.Fatalf("gen %d: rejected at node %d: %s", s.Generation(), id, reason)
	}
	if err := s.CheckRepairState(); err != nil {
		t.Fatalf("gen %d: %v", s.Generation(), err)
	}
}

// TestLeafStreamRepairs grows networks under each scheme with repair by
// streams of leaf batches: one to three leaves, at one node or apart.
// Every batch must be a repair with a full sweep that the network
// accepts, leaving the state the certificates give. Every stream takes
// n across a power of two, where the planarity rank width changes, and
// two of each scheme's streams start from one and two nodes.
func TestLeafStreamRepairs(t *testing.T) {
	planar := Config{Scheme: core.PlanarScheme{}, Counterpart: core.NonPlanarScheme{}}
	tree := Config{Scheme: pls.SpanningTreeScheme{}}
	nonPlanar := Config{Scheme: core.NonPlanarScheme{}, Counterpart: core.PlanarScheme{}}
	subdivision, err := gen.PlantSubdivision(40, true, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"planarity/n=60", gen.StackedTriangulation(60, rand.New(rand.NewSource(1))), planar},
		{"planarity/n=1", gen.Path(1), planar},
		{"planarity/n=2", gen.Path(2), planar},
		{"spanning-tree/grid", gen.Grid(5, 6), tree},
		{"spanning-tree/n=1", gen.Path(1), tree},
		{"spanning-tree/n=2", gen.Path(2), tree},
		{"non-planarity/K5", subdivision, nonPlanar},
		{"non-planarity/K3,3", gen.CompleteBipartite(3, 3), nonPlanar},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n0 := uint64(tc.g.N())
			s, err := NewSession(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Certified() {
				t.Fatalf("initial certification failed: %+v", s.Last())
			}
			rng := rand.New(rand.NewSource(7))
			for i := range 24 {
				applyLeafRepair(t, s, leafBatch(s, rng, 1+i%3, i%4 == 1))
			}
			if bits.WidthFor(2*n0) == bits.WidthFor(2*uint64(s.g.N())) {
				t.Fatalf("the stream from n=%d to n=%d kept the rank width", n0, s.g.N())
			}
		})
	}
}

// TestLeafMixedRepairs puts a leaf into batches with other repairs: the
// removal of a chord and its re-add under planarity, a tree-edge splice
// with the leaf at the cut-off child, and the same removal as spanning
// tree surgery. The edge repairs run first, on the old ranks.
func TestLeafMixedRepairs(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(200, rand.New(rand.NewSource(8))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	p := s.state.(*planarState)
	var chord graph.Edge
	for _, es := range p.byRank {
		if len(es) > 0 {
			chord = es[0]
			break
		}
	}
	a, b := s.g.IDOf(chord.U), s.g.IDOf(chord.V)
	applyLeafRepair(t, s, append(leafBatch(s, rng, 1, false), Update{Op: RemoveEdge, A: a, B: b}))
	applyLeafRepair(t, s, append(leafBatch(s, rng, 2, true), Update{Op: AddEdge, A: a, B: b}))

	splices := 0
	for _, e := range treeEdges(t, s) {
		if splices == 6 {
			break
		}
		alone, err := forkSession(t, s).Apply([]Update{{Op: RemoveEdge, A: s.g.IDOf(e.U), B: s.g.IDOf(e.V)}})
		if err != nil {
			t.Fatal(err)
		}
		if alone.Mode != ModeRepair { // out of the splice's scope
			continue
		}
		batch := leafBatch(s, rng, 1, false)
		batch[1].B = s.g.IDOf(e.V) // the leaf hangs at the cut-off child
		applyLeafRepair(t, s, append(batch, Update{Op: RemoveEdge, A: s.g.IDOf(e.U), B: s.g.IDOf(e.V)}))
		splices++
	}
	if splices == 0 {
		t.Fatal("no tree edge to splice")
	}

	ts, err := NewSession(gen.Grid(6, 6), Config{Scheme: pls.SpanningTreeScheme{}})
	if err != nil {
		t.Fatal(err)
	}
	applyLeafRepair(t, ts, leafBatch(ts, rng, 1, false)) // decodes the state
	tr := ts.state.(*treeRepair)
	for c, par := range tr.parent {
		if h := ts.g.Clone(); c == par || !h.RemoveEdge(c, par) || !h.Connected() {
			continue
		}
		batch := leafBatch(ts, rng, 1, false)
		batch[1].B = ts.g.IDOf(c)
		applyLeafRepair(t, ts, append(batch, Update{Op: RemoveEdge, A: ts.g.IDOf(c), B: ts.g.IDOf(par)}))
		return
	}
	t.Fatal("no spanning-tree edge to cut")
}

// TestNonLeafAdditionsFallBack checks that a node addition other than a
// leaf of an existing node falls back, under a reason naming it: an
// isolated node, a node with two edges, and an edge between two new
// nodes.
func TestNonLeafAdditionsFallBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		batch  []Update
		reason string
	}{
		{"isolated", []Update{{Op: AddNode, A: 100}}, "node addition: node 100 is isolated"},
		{"two edges", []Update{{Op: AddNode, A: 100}, {Op: AddEdge, A: 100, B: 0}, {Op: AddEdge, A: 100, B: 3}},
			"node addition: node 100 has 2 edges, not one"},
		{"two new nodes", []Update{{Op: AddNode, A: 100}, {Op: AddNode, A: 101}, {Op: AddEdge, A: 100, B: 101}, {Op: AddEdge, A: 101, B: 0}},
			"node addition: edge {100,101} joins two new nodes"},
	} {
		s, err := NewSession(gen.Cycle(6), planarCfg())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Apply(tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode == ModeRepair || rep.RepairFallback != tc.reason {
			t.Fatalf("%s: %s (%q), want a fallback for %q", tc.name, rep.Mode, rep.RepairFallback, tc.reason)
		}
		checkParity(t, s)
	}
}

// TestRejectedLeafRepairRestoresCertificates corrupts one certificate of
// a leaf repair, so its full sweep rejects. The session must then hold
// the slice accepted before the batch and no repair state, and the
// batch must re-prove.
func TestRejectedLeafRepairRestoresCertificates(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(100, rand.New(rand.NewSource(10))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	applyLeafRepair(t, s, leafBatch(s, rng, 1, false))

	// Flush's steps, up to the fallback.
	s.state = &corruptingRepair{repairState: s.state, g: s.g, armed: true}
	before := s.certs
	batch := leafBatch(s, rng, 1, false)
	nb, err := s.validate(batch)
	if err != nil {
		t.Fatal(err)
	}
	s.applyToGraph(batch)
	s.fp = s.fp.apply(nb)
	s.gen++
	rep := &Report{}
	if s.tryRepair(nb, rep) {
		t.Fatal("a corrupted leaf repair was absorbed")
	}
	if !strings.HasPrefix(rep.RepairFallback, "frontier rejected") {
		t.Fatalf("fallback %q, want a rejected frontier", rep.RepairFallback)
	}
	if len(s.certs) != len(before) || &s.certs[0] != &before[0] || s.state != nil {
		t.Fatalf("after the rejection: %d certificates (%d before, same slice %v), state %T",
			len(s.certs), len(before), &s.certs[0] == &before[0], s.state)
	}
	s.reprove(rep, nb)
	if rep.Mode != ModeReprove || !rep.Accepted {
		t.Fatalf("re-prove after the rejection: %+v", rep)
	}

	// The same through Apply.
	s.state = &corruptingRepair{repairState: s.state, g: s.g, armed: true}
	rep, err = s.Apply(leafBatch(s, rng, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeReprove || !rep.Accepted || !strings.HasPrefix(rep.RepairFallback, "frontier rejected") {
		t.Fatalf("corrupted leaf repair absorbed as %s (%q)", rep.Mode, rep.RepairFallback)
	}
	checkParity(t, s)
}
