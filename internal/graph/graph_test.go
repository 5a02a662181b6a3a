package graph

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsSequentialIndices(t *testing.T) {
	g := New(4)
	for i, id := range []ID{10, 20, 30, 40} {
		idx, err := g.AddNode(id)
		if err != nil {
			t.Fatalf("AddNode(%d): %v", id, err)
		}
		if idx != i {
			t.Fatalf("AddNode(%d) index = %d, want %d", id, idx, i)
		}
	}
	if g.N() != 4 {
		t.Fatalf("N() = %d, want 4", g.N())
	}
}

func TestAddNodeDuplicateID(t *testing.T) {
	g := New(2)
	g.MustAddNode(7)
	if _, err := g.AddNode(7); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate AddNode error = %v, want ErrDuplicateID", err)
	}
}

func TestAddEdgeRejectsLoopsAndDuplicates(t *testing.T) {
	g := NewWithNodes(3)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("AddEdge(1,1) accepted a self-loop")
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("AddEdge(1,0) accepted a duplicate edge")
	}
	if err := g.AddEdge(0, 5); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("AddEdge out of range error = %v, want ErrNoSuchNode", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewWithNodes(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false, want true")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge {0,1} still present after removal")
	}
	if g.Degree(1) != 1 || g.Degree(0) != 0 {
		t.Fatalf("degrees after removal = (%d,%d), want (0,1)", g.Degree(0), g.Degree(1))
	}
	if g.RemoveEdge(0, 2) {
		t.Fatal("RemoveEdge of absent edge reported true")
	}
	if g.M() != 1 {
		t.Fatalf("M() = %d, want 1", g.M())
	}
}

func TestEdgesSortedAndNormalized(t *testing.T) {
	g := NewWithNodes(4)
	g.MustAddEdge(3, 1)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(1, 0)
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// refEdges is the map-dump-and-sort Edges that the adjacency bucketing
// replaced, kept as its reference.
func refEdges(g *Graph) []Edge {
	out := make([]Edge, 0, len(g.edges))
	for e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// TestEdgesMatchesSortedSetUnderChurn checks the bucketed Edges against
// the sorted edge set after random add/remove churn, which reorders
// adjacency lists (removals splice, re-adds append at the tail).
func TestEdgesMatchesSortedSetUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := NewWithNodes(n)
		for step := 0; step < 6*n; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if g.HasEdge(u, v) {
				g.RemoveEdge(u, v)
			} else {
				g.MustAddEdge(u, v)
			}
			if step%7 == 0 {
				if got, want := g.Edges(), refEdges(g); !slices.Equal(got, want) {
					t.Fatalf("trial %d step %d: Edges() = %v, want %v", trial, step, got, want)
				}
			}
		}
		if got, want := g.Edges(), refEdges(g); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Edges() = %v, want %v", trial, got, want)
		}
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want {2,5}", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Fatal("Edge.Other broken")
	}
	if !e.Has(2) || !e.Has(5) || e.Has(3) {
		t.Fatal("Edge.Has broken")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewWithNodes(3)
	g.MustAddEdge(0, 1)
	c := g.Clone()
	c.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("mutating clone changed original")
	}
	if c.M() != 2 || g.M() != 1 {
		t.Fatalf("M mismatch: clone %d original %d", c.M(), g.M())
	}
}

// TestCopiesKeepAdjacencyOrder pins that every copy lists each node's
// neighbours in the original order: the embedding, the DFS tree and so
// the certificates are all built from that order.
func TestCopiesKeepAdjacencyOrder(t *testing.T) {
	g := NewWithNodes(6)
	for _, e := range [][2]int{{0, 5}, {0, 2}, {0, 4}, {0, 1}, {3, 0}, {2, 4}, {5, 2}, {1, 2}} {
		g.MustAddEdge(e[0], e[1])
	}
	g.RemoveEdge(0, 4)
	r, err := g.RelabelIDs([]ID{10, 11, 12, 13, 14, 15})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Graph{"Clone": g.Clone(), "RelabelIDs": r} {
		for u := 0; u < g.N(); u++ {
			if !slices.Equal(c.Neighbors(u), g.Neighbors(u)) {
				t.Fatalf("%s: node %d neighbours %v, want %v", name, u, c.Neighbors(u), g.Neighbors(u))
			}
		}
		if c.M() != g.M() {
			t.Fatalf("%s: M = %d, want %d", name, c.M(), g.M())
		}
	}
	sub, old2new := g.InducedSubgraph([]int{5, 2, 0, 1})
	want := map[int][]int{5: {0, 2}, 2: {0, 5, 1}, 0: {5, 2, 1}, 1: {0, 2}}
	for u, nbs := range want {
		var got []int
		for _, v := range sub.Neighbors(old2new[u]) {
			got = append(got, int(sub.IDOf(v)))
		}
		if !slices.Equal(got, nbs) {
			t.Fatalf("InducedSubgraph: node %d neighbours %v, want %v", u, got, nbs)
		}
	}
	if sub.M() != 5 {
		t.Fatalf("InducedSubgraph: M = %d, want 5", sub.M())
	}
}

func TestRelabelIDs(t *testing.T) {
	g := NewWithNodes(3)
	g.MustAddEdge(0, 2)
	r, err := g.RelabelIDs([]ID{100, 200, 300})
	if err != nil {
		t.Fatalf("RelabelIDs: %v", err)
	}
	if r.IDOf(2) != 300 {
		t.Fatalf("IDOf(2) = %d, want 300", r.IDOf(2))
	}
	if !r.HasEdge(0, 2) {
		t.Fatal("relabel dropped edge")
	}
	if _, err := g.RelabelIDs([]ID{1, 2}); err == nil {
		t.Fatal("RelabelIDs accepted wrong length")
	}
	if _, err := g.RelabelIDs([]ID{1, 1, 2}); err == nil {
		t.Fatal("RelabelIDs accepted duplicate ids")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewWithNodes(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	sub, m := g.InducedSubgraph([]int{1, 2, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced subgraph = %v, want n=3 m=2", sub)
	}
	if !sub.HasEdge(m[1], m[2]) || !sub.HasEdge(m[2], m[3]) {
		t.Fatal("induced subgraph lost inner edges")
	}
	if sub.HasEdge(m[1], m[3]) {
		t.Fatal("induced subgraph invented an edge")
	}
}

func TestBFSPathGraph(t *testing.T) {
	g := NewWithNodes(5)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1)
	}
	parent, dist := g.BFSFrom(0)
	for i := 0; i < 5; i++ {
		if dist[i] != i {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	if parent[0] != 0 || parent[3] != 2 {
		t.Fatalf("parent = %v", parent)
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := NewWithNodes(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components() = %d comps, want 3 (sizes 3,2,1)", len(comps))
	}
	g.MustAddEdge(2, 3)
	g.MustAddEdge(4, 5)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
	if _, ok := g.SpanningTree(0); !ok {
		t.Fatal("SpanningTree failed on connected graph")
	}
}

func TestSpanningTreeDisconnected(t *testing.T) {
	g := NewWithNodes(3)
	g.MustAddEdge(0, 1)
	if _, ok := g.SpanningTree(0); ok {
		t.Fatal("SpanningTree succeeded on disconnected graph")
	}
}

func TestDegeneracyOrderOnTree(t *testing.T) {
	// A star K_{1,5}: degeneracy 1.
	g := NewWithNodes(6)
	for i := 1; i <= 5; i++ {
		g.MustAddEdge(0, i)
	}
	order, d := g.DegeneracyOrder()
	if d != 1 {
		t.Fatalf("star degeneracy = %d, want 1", d)
	}
	if len(order) != 6 {
		t.Fatalf("order covers %d nodes, want 6", len(order))
	}
}

func TestDegeneracyOrderOnClique(t *testing.T) {
	g := NewWithNodes(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.MustAddEdge(i, j)
		}
	}
	_, d := g.DegeneracyOrder()
	if d != 4 {
		t.Fatalf("K5 degeneracy = %d, want 4", d)
	}
}

// degeneracyProperty checks the defining property of the ordering: each
// node has at most `degeneracy` neighbors later in the order.
func degeneracyProperty(g *Graph) bool {
	order, d := g.DegeneracyOrder()
	pos := make([]int, g.N())
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < g.N(); u++ {
		later := 0
		for _, v := range g.Neighbors(u) {
			if pos[v] > pos[u] {
				later++
			}
		}
		if later > d {
			return false
		}
	}
	return true
}

func TestDegeneracyOrderPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := NewWithNodes(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					g.MustAddEdge(i, j)
				}
			}
		}
		if !degeneracyProperty(g) {
			t.Fatalf("degeneracy property violated on trial %d: %v", trial, g)
		}
	}
}

// refDegeneracyOrder is the slice-per-bucket peeling DegeneracyOrder
// replaced, kept as its reference: the arena must pop nodes in exactly
// the same LIFO order, since the order fixes which endpoint holds each
// planar edge certificate.
func refDegeneracyOrder(g *Graph) (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		deg[i] = len(g.adj[i])
		maxDeg = max(maxDeg, deg[i])
	}
	buckets := make([][]int, maxDeg+1)
	for i := 0; i < n; i++ {
		buckets[deg[i]] = append(buckets[deg[i]], i)
	}
	cur := 0
	for len(order) < n && cur <= maxDeg {
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		u := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[u] || deg[u] != cur {
			continue
		}
		removed[u] = true
		order = append(order, u)
		degeneracy = max(degeneracy, cur)
		for _, v := range g.adj[u] {
			if !removed[v] {
				deg[v]--
				buckets[deg[v]] = append(buckets[deg[v]], v)
				cur = min(cur, deg[v])
			}
		}
	}
	return order, degeneracy
}

func TestDegeneracyOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		g := NewWithNodes(n)
		for i := rng.Intn(4*n + 1); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		gotOrder, gotDeg := g.DegeneracyOrder()
		wantOrder, wantDeg := refDegeneracyOrder(g)
		if gotDeg != wantDeg || !slices.Equal(gotOrder, wantOrder) {
			t.Fatalf("trial %d (%v): order %v degeneracy %d, reference %v %d",
				trial, g, gotOrder, gotDeg, wantOrder, wantDeg)
		}
	}
}

func TestDSU(t *testing.T) {
	d := NewDSU(5)
	if !d.Union(0, 1) || !d.Union(2, 3) {
		t.Fatal("fresh unions reported no-op")
	}
	if d.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	if !d.SameSet(0, 1) || d.SameSet(1, 2) {
		t.Fatal("SameSet wrong")
	}
	d.Union(1, 3)
	if !d.SameSet(0, 2) {
		t.Fatal("transitive union broken")
	}
	if d.SameSet(0, 4) {
		t.Fatal("singleton merged spuriously")
	}
}

func TestDSUQuickTransitivity(t *testing.T) {
	f := func(pairs []uint8) bool {
		d := NewDSU(16)
		naive := make([]int, 16)
		for i := range naive {
			naive[i] = i
		}
		for _, p := range pairs {
			a, b := int(p>>4), int(p&0x0f)
			d.Union(a, b)
			ra, rb := naive[a], naive[b]
			for i := range naive {
				if naive[i] == rb {
					naive[i] = ra
				}
			}
		}
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				if d.SameSet(i, j) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsTreeEdge(t *testing.T) {
	parent := []int{0, 0, 1}
	if !IsTreeEdge(parent, 0, 1) || !IsTreeEdge(parent, 2, 1) {
		t.Fatal("tree edges not recognised")
	}
	if IsTreeEdge(parent, 0, 2) {
		t.Fatal("non-tree edge recognised as tree edge")
	}
}

func TestStringer(t *testing.T) {
	g := NewWithNodes(2)
	g.MustAddEdge(0, 1)
	if got := g.String(); got != "graph(n=2, m=1)" {
		t.Fatalf("String() = %q", got)
	}
}
