package core

import (
	"errors"
	"fmt"

	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/planarity"
)

// Transform is the outcome of cutting a planar graph along a spanning tree
// (Section 3.2 of the paper): a DFS tree T following the rotation system,
// the DFS-mapping f onto ranks 1..2n-1, and the induced path-outerplanar
// graph G_{T,f} whose identity order is a witness (Lemma 3).
type Transform struct {
	G    *graph.Graph
	Root int

	// Parent is the tree parent of every vertex (Parent[Root] = Root).
	Parent []int
	// ChildOrder lists each vertex's children in the counterclockwise
	// order ν of the embedding, starting after the parent edge.
	ChildOrder [][]int
	// Depth is the DFS tree depth of each vertex.
	Depth []int

	// N2 = 2n-1 is the number of ranks of G_{T,f}.
	N2 int
	// F maps rank (1-based) to the original vertex index.
	F []int
	// Copies maps each vertex to its ranks i_1 < ... < i_d.
	Copies [][]int

	// Edges lists the edges of G in graph.Edges order; an edge's
	// position here is its id in CotreeRanks and in the holder list of
	// BuildPlanarCertObjects.
	Edges []graph.Edge
	// CotreeRanks maps the id of every cotree edge e to the pair [rank
	// of e.U's copy, rank of e.V's copy] its G_{T,f} edge joins. Tree
	// edges hold [0, 0] (ranks start at 1).
	CotreeRanks [][2]int
	// POEdges is the full edge set of G_{T,f} in rank space: the path
	// edges {i, i+1} (the first N2-1 entries) plus the mapped cotree
	// edges in edge-id order.
	POEdges []graph.Edge
	// Intervals holds I(x) for each rank x (index 0 unused), as computed
	// by the nesting sweep; present only after a successful Build.
	Intervals []Interval
}

// IsTree reports whether edge id e is a spanning-tree edge.
func (t *Transform) IsTree(e int) bool { return t.CotreeRanks[e][0] == 0 }

// chords lists the non-path PO edges (path edges never strictly cover a
// rank and never cross anything).
func (t *Transform) chords() []graph.Edge { return t.POEdges[t.N2-1:] }

var errEmptyTransform = errors.New("core: empty graph has no transform")

// BuildTransform computes the transform for a connected planar graph g
// using the planar rotation system rot, rooting the spanning tree at
// vertex root. It returns an error if g is disconnected or if the
// construction fails to produce a path-outerplanar graph (which, by
// Lemma 3, indicates rot is not a planar embedding).
func BuildTransform(g *graph.Graph, rot *embedding.Rotation, root int) (*Transform, error) {
	if g.N() == 0 {
		return nil, errEmptyTransform
	}
	d, err := rot.Index(g)
	if err != nil {
		return nil, fmt.Errorf("core: invalid rotation: %w", err)
	}
	return buildTransform(g, rot, d, root)
}

// buildTransform is BuildTransform over a validated rotation's dart
// index. Every step is an O(n + m) pass over arrays indexed by vertex,
// dart, rank or edge id.
func buildTransform(g *graph.Graph, rot *embedding.Rotation, d *embedding.Darts, root int) (*Transform, error) {
	n := g.N()
	t := &Transform{
		G:      g,
		Root:   root,
		Parent: make([]int, n),
		Depth:  make([]int, n),
		N2:     2*n - 1,
		F:      make([]int, 2*n),
		Edges:  d.Edges,
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Depth[i] = -1
	}
	t.Parent[root] = root
	t.Depth[root] = 0

	// DFS following the rotation: at v, scan neighbors starting just after
	// the parent's slot (for the root: from slot 0, i.e. the virtual r'
	// sits before slot 0). Unvisited neighbors become children in that
	// order, and every return to v records a further copy of v. pslot[w]
	// is the slot of w's parent in w's rotation, read off the dart index.
	type frame struct{ v, start, scanned int32 }
	pslot := make([]int32, n)
	stack := make([]frame, 1, n)
	stack[0] = frame{v: int32(root)}
	counter := 1
	t.F[1] = root
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		v := int(fr.v)
		rotv := rot.Order[v]
		if int(fr.scanned) == len(rotv) {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				counter++
				t.F[counter] = int(stack[len(stack)-1].v)
			}
			continue
		}
		slot := int(fr.start + fr.scanned)
		if slot >= len(rotv) {
			slot -= len(rotv)
		}
		fr.scanned++
		w := rotv[slot]
		if t.Depth[w] != -1 { // the parent, or a cotree edge
			continue
		}
		t.Parent[w] = v
		t.Depth[w] = t.Depth[v] + 1
		counter++
		t.F[counter] = w
		ps := d.Rev[d.Off[v]+int32(slot)] - d.Off[w]
		pslot[w] = ps
		stack = append(stack, frame{v: int32(w), start: ps + 1})
	}
	if counter != t.N2 {
		return nil, fmt.Errorf("core: DFS covered %d ranks, want %d (graph disconnected?)", counter, t.N2)
	}

	// Copies and children, carved from two slabs: the copies of v are the
	// ranks f maps to v, and the rank after each copy but the last is the
	// first copy of the next child.
	off := make([]int32, n+1)
	for r := 1; r <= t.N2; r++ {
		off[t.F[r]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	copySlab := make([]int, t.N2)
	childSlab := make([]int, t.N2-n)
	t.Copies = make([][]int, n)
	t.ChildOrder = make([][]int, n)
	for v := 0; v < n; v++ {
		lo, hi := int(off[v]), int(off[v+1])
		t.Copies[v] = copySlab[lo:lo:hi]
		t.ChildOrder[v] = childSlab[lo-v : lo-v : hi-v-1]
	}
	for r := 1; r <= t.N2; r++ {
		v := t.F[r]
		if len(t.Copies[v]) > 0 {
			t.ChildOrder[v] = append(t.ChildOrder[v], t.F[t.Copies[v][len(t.Copies[v])-1]+1])
		}
		t.Copies[v] = append(t.Copies[v], r)
	}

	// Cotree edges: attach each endpoint to the copy given by its type
	// (Lemma 3): scanning the rotation forward from the cotree slot, the
	// first tree-child slot c_k gives copy i_k, and wrapping to the parent
	// slot (or the root's virtual r' boundary) gives copy i_d. One
	// backward pass over each rotation, starting from the boundary,
	// resolves every slot of the vertex.
	dartRank := make([]int32, len(d.Rev))
	for v := 0; v < n; v++ {
		rotv, copies := rot.Order[v], t.Copies[v]
		base := 0
		if v != root {
			base = int(pslot[v])
		}
		k := len(copies) - 1
		cur := int32(copies[k])
		for rel := len(rotv) - 1; rel >= 0; rel-- {
			slot := base + rel
			if slot >= len(rotv) {
				slot -= len(rotv)
			}
			if t.Parent[rotv[slot]] == v { // tree child c_k
				k--
				cur = int32(copies[k])
				continue
			}
			dartRank[int(d.Off[v])+slot] = cur
		}
	}
	t.CotreeRanks = make([][2]int, len(d.Edges))
	t.POEdges = make([]graph.Edge, t.N2-1, t.N2-1+len(d.Edges)-(n-1))
	for i := 1; i < t.N2; i++ {
		t.POEdges[i-1] = graph.Edge{U: i, V: i + 1}
	}
	for e, ge := range d.Edges {
		if t.Parent[ge.U] == ge.V || t.Parent[ge.V] == ge.U {
			continue // tree edge
		}
		lo := d.Lo[e]
		ru, rv := int(dartRank[lo]), int(dartRank[d.Rev[lo]])
		t.CotreeRanks[e] = [2]int{ru, rv}
		t.POEdges = append(t.POEdges, graph.NewEdge(ru, rv))
	}

	// Compute intervals; the sweep also proves the identity order is a
	// path-outerplanarity witness (Lemma 3).
	intervals, err := ComputeIntervals(t.N2, t.chords())
	if err != nil {
		return nil, fmt.Errorf("core: G_{T,f} not path-outerplanar: %w", err)
	}
	t.Intervals = intervals
	return t, nil
}

// TransformOf is the honest-prover pipeline: test planarity, audit the
// embedding, and build the transform rooted at vertex 0.
func TransformOf(g *graph.Graph) (*Transform, error) {
	return transformOf(g, nil)
}

// transformOf is TransformOf recording the LR test, the Euler audit and
// the transform as children of sp (nil records nothing).
func transformOf(g *graph.Graph, sp *obs.Span) (*Transform, error) {
	if g.N() == 0 {
		return nil, errEmptyTransform
	}
	c := sp.Child(obs.SpanLRCheck)
	ok, rot, err := planarity.Check(g)
	c.End()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: graph is not planar")
	}
	return auditedTransform(g, rot, sp)
}

// auditedTransform checks that rot is a planar rotation system of g
// and builds the transform from it, rooted at vertex 0. It records the
// Euler audit and the transform as children of sp.
func auditedTransform(g *graph.Graph, rot *embedding.Rotation, sp *obs.Span) (*Transform, error) {
	c := sp.Child(obs.SpanEulerAudit)
	d, err := rot.Index(g)
	planar := err == nil && d.Genus() == 0
	c.End()
	if err != nil {
		return nil, err
	}
	if !planar {
		return nil, fmt.Errorf("core: embedding failed Euler audit")
	}
	c = sp.Child(obs.SpanTransform)
	defer c.End()
	return buildTransform(g, rot, d, 0)
}

// ContractBack verifies Lemma 4's round trip: contracting the path edges
// {i, i+1} with f(i) = f(i+1+...)... — concretely, mapping every rank back
// through F and re-adding the cotree edges — must reproduce exactly the
// original graph.
func (t *Transform) ContractBack() (*graph.Graph, error) {
	g := graph.New(t.G.N())
	for v := 0; v < t.G.N(); v++ {
		g.MustAddNode(t.G.IDOf(v))
	}
	addOnce := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	for _, po := range t.POEdges {
		addOnce(t.F[po.U], t.F[po.V])
	}
	// The contraction must reproduce G exactly.
	if g.M() != t.G.M() {
		return nil, fmt.Errorf("core: contraction has %d edges, original %d", g.M(), t.G.M())
	}
	for _, e := range t.G.Edges() {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("core: contraction lost edge %v", e)
		}
	}
	return g, nil
}

// NumCopies returns d(v), the number of ranks mapped to v.
func (t *Transform) NumCopies(v int) int { return len(t.Copies[v]) }
