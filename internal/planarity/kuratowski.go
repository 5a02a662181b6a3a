package planarity

import (
	"errors"
	"fmt"
	"slices"

	"github.com/planarcert/planarcert/internal/graph"
)

// Kind labels the two Kuratowski obstructions.
type Kind int

const (
	// KindK5 marks a subdivision of the complete graph K5.
	KindK5 Kind = iota + 1
	// KindK33 marks a subdivision of the complete bipartite graph K3,3.
	KindK33
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindK5:
		return "K5"
	case KindK33:
		return "K3,3"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrPlanarInput is returned by Kuratowski when the input has no
// obstruction to extract.
var ErrPlanarInput = errors.New("planarity: graph is planar, no Kuratowski subgraph")

// Witness is a Kuratowski subgraph: a subdivision of K5 or K3,3 found
// inside a non-planar graph, given by its edges (indices into the original
// graph), its branch vertices, and the subdivision paths connecting them.
type Witness struct {
	Kind   Kind
	Edges  []graph.Edge
	Branch []int   // 5 branch vertices for K5; 6 (3+3) for K3,3
	Paths  [][]int // one vertex path per branch edge, endpoints included
}

// Kuratowski extracts a Kuratowski witness from a non-planar graph by
// halving block deletion over one masked LR tester. It first narrows the
// tester to the region where the LR test fails (see narrow), so on a
// maximal planar graph plus one edge the deletion starts from 1-20% of
// the edges rather than all of them; a witness in a non-planar subgraph
// of g is a witness in g. The
// candidates are the edges still in the tested graph, in sorted order.
// The first pass tries to remove each half of them, and every later pass
// halves the block size, down to single edges. A block whose removal
// keeps the graph non-planar is removed for good; the other blocks stay.
// In the last pass an edge is kept only if removing it alone made the
// graph planar, and every subgraph of a planar graph is planar, so the
// final graph is edge-minimal non-planar: exactly a subdivision of K5 or
// K3,3 (Kuratowski's theorem). Whenever half of the tester's edges are
// gone, the tester compacts itself onto the rest, so a test costs O(live)
// time rather than O(n+m) and allocates nothing; a pass with blocks of
// size s makes about live/s tests. On a maximal planar graph plus one
// edge an extraction scans a few times m edges in all.
func Kuratowski(g *graph.Graph) (*Witness, error) {
	return kuratowski(g, true)
}

// kuratowski is Kuratowski with the tester's compaction switchable, so
// tests can check that compaction changes no decision.
func kuratowski(g *graph.Graph, compact bool) (*Witness, error) {
	st := newLR(g)
	if err := st.narrow(g, compact); err != nil {
		return nil, err
	}
	return st.extract(compact)
}

// regionPlanar, when set, makes narrow read the region as planar, so
// tests can take the path that keeps every edge.
var regionPlanar bool

// narrow runs the LR test on a fresh tester over g, past the Euler bound,
// and returns ErrPlanarInput if g is planar. Otherwise the test failed at
// the tail v of edge fail, and the region is the tree path from the root
// to v plus every edge the testing DFS entered from v on: v's outgoing
// edges up to and including fail, and all outgoing edges of the
// descendants these lead to, which the DFS had finished. The region marks
// itself in the alive mask, with byDepth as the walk's stack, so narrowing
// allocates nothing. If the region has under 90% of the edges and tests
// non-planar, the tester keeps only it, compacted first if compact is set;
// otherwise every edge of g is alive again, on a rebuilt tester if
// compaction had already thrown the rest away.
func (st *lr) narrow(g *graph.Graph, compact bool) error {
	planar, err := st.run()
	if err != nil {
		return err
	}
	if planar {
		return ErrPlanarInput
	}
	v := st.from[st.fail]
	clear(st.alive)
	keep := 0
	for e := st.parentEdge[v]; e != none; e = st.parentEdge[st.from[e]] {
		st.alive[e] = true
		keep++
	}
	out := st.outgoing(v)
	edges := out[:slices.Index(out, st.fail)+1]
	stack := st.byDepth[:0] // sortOutgoing is done with it
	for {
		for _, ei := range edges {
			st.alive[ei] = true
			keep++
			if w := st.to[ei]; st.parentEdge[w] == ei {
				stack = append(stack, w)
			}
		}
		if len(stack) == 0 {
			break
		}
		edges = st.outgoing(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}
	if 10*keep < 9*st.m {
		st.live = keep
		if compact {
			st.compact()
		}
		planar, err := st.planar()
		if err != nil {
			return err
		}
		if !planar && !regionPlanar {
			return nil
		}
		if compact {
			*st = *newLR(g)
			return nil
		}
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	st.live = st.m
	return nil
}

// extract runs the halving block deletion of Kuratowski on the tester's
// alive edges, which must be non-planar, and classifies what is left.
func (st *lr) extract(compact bool) (*Witness, error) {
	cand := make([]int32, 0, st.live)
	for ei, alive := range st.alive {
		if alive {
			cand = append(cand, int32(ei))
		}
	}
	for size := (len(cand) + 1) / 2; ; size = (size + 1) / 2 {
		// Kept blocks move down to cand[:w], so cand[:w] and cand[i:] are
		// always the alive edges in id order.
		w := 0
		for i := 0; i < len(cand); {
			block := cand[i:min(i+size, len(cand))]
			i += len(block)
			removed, err := st.drop(block)
			if err != nil {
				return nil, err
			}
			if !removed {
				w += copy(cand[w:], block)
				continue
			}
			if compact && 2*st.live <= st.m {
				// Compaction numbers the alive edges, cand[:w] then
				// cand[i:], 0, 1, ... in order.
				st.compact()
				cand, i = cand[:st.live], w
				for j := range cand {
					cand[j] = int32(j)
				}
			}
		}
		cand = cand[:w]
		if size == 1 {
			break
		}
	}
	// Classify over the witness's own vertices, numbered in g's order, so
	// every list maps back to g's indices in the same order.
	var verts []int
	for ei, e := range st.elist {
		if st.alive[ei] {
			verts = append(verts, e.U, e.V)
		}
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	work := graph.NewWithNodes(len(verts))
	for ei, e := range st.elist {
		if st.alive[ei] {
			u, _ := slices.BinarySearch(verts, e.U)
			v, _ := slices.BinarySearch(verts, e.V)
			work.MustAddEdge(u, v)
		}
	}
	w, err := classifyMinimal(work)
	if err != nil {
		return nil, err
	}
	for i, e := range w.Edges {
		w.Edges[i] = graph.Edge{U: verts[e.U], V: verts[e.V]}
	}
	for _, vs := range append([][]int{w.Branch}, w.Paths...) {
		for i, v := range vs {
			vs[i] = verts[v]
		}
	}
	return w, nil
}

// classifyMinimal decomposes an edge-minimal non-planar graph into a
// Kuratowski witness: it must be a K5 or K3,3 subdivision once isolated
// vertices are ignored.
func classifyMinimal(work *graph.Graph) (*Witness, error) {
	w := &Witness{Edges: work.Edges()}
	for v := 0; v < work.N(); v++ {
		switch d := work.Degree(v); {
		case d == 0 || d == 2:
			// interior path vertex or unused
		case d == 4:
			w.Branch = append(w.Branch, v)
		case d == 3:
			w.Branch = append(w.Branch, v)
		default:
			return nil, fmt.Errorf("%w: degree-%d vertex %d in minimal obstruction",
				ErrInternal, d, v)
		}
	}
	deg3, deg4 := 0, 0
	for _, b := range w.Branch {
		switch work.Degree(b) {
		case 3:
			deg3++
		case 4:
			deg4++
		}
	}
	switch {
	case deg4 == 5 && deg3 == 0:
		w.Kind = KindK5
	case deg3 == 6 && deg4 == 0:
		w.Kind = KindK33
	default:
		return nil, fmt.Errorf("%w: branch degrees (deg3=%d, deg4=%d) match neither K5 nor K3,3",
			ErrInternal, deg3, deg4)
	}

	// Walk the subdivision paths between branch vertices.
	isBranch := make(map[int]bool, len(w.Branch))
	for _, b := range w.Branch {
		isBranch[b] = true
	}
	seen := make(map[graph.Edge]bool, work.M())
	for _, b := range w.Branch {
		for _, nb := range work.Neighbors(b) {
			e0 := graph.NewEdge(b, nb)
			if seen[e0] {
				continue
			}
			path := []int{b}
			prev, cur := b, nb
			seen[e0] = true
			for !isBranch[cur] {
				if work.Degree(cur) != 2 {
					return nil, fmt.Errorf("%w: path vertex %d has degree %d",
						ErrInternal, cur, work.Degree(cur))
				}
				path = append(path, cur)
				next := work.Neighbors(cur)[0]
				if next == prev {
					next = work.Neighbors(cur)[1]
				}
				seen[graph.NewEdge(cur, next)] = true
				prev, cur = cur, next
			}
			path = append(path, cur)
			w.Paths = append(w.Paths, path)
		}
	}
	wantPaths := 10
	if w.Kind == KindK33 {
		wantPaths = 9
	}
	if len(w.Paths) != wantPaths {
		return nil, fmt.Errorf("%w: %d subdivision paths for %v", ErrInternal, len(w.Paths), w.Kind)
	}
	if err := w.verify(work); err != nil {
		return nil, err
	}
	if w.Kind == KindK33 {
		if err := w.orderBranchesBySide(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// orderBranchesBySide reorders a K3,3 witness's branch vertices so that
// Branch[0..2] form one side of the bipartition and Branch[3..5] the
// other (consumers index sides by position).
func (w *Witness) orderBranchesBySide() error {
	idx := make(map[int]int, len(w.Branch))
	for i, b := range w.Branch {
		idx[b] = i
	}
	side := make([]int, len(w.Branch))
	for i := range side {
		side[i] = -1
	}
	side[0] = 0
	// Propagate through paths (each path joins opposite sides).
	for changed := true; changed; {
		changed = false
		for _, p := range w.Paths {
			a, b := idx[p[0]], idx[p[len(p)-1]]
			switch {
			case side[a] != -1 && side[b] == -1:
				side[b] = 1 - side[a]
				changed = true
			case side[b] != -1 && side[a] == -1:
				side[a] = 1 - side[b]
				changed = true
			}
		}
	}
	var first, second []int
	for i, b := range w.Branch {
		switch side[i] {
		case 0:
			first = append(first, b)
		case 1:
			second = append(second, b)
		default:
			return fmt.Errorf("%w: branch %d unreachable in bipartition", ErrInternal, b)
		}
	}
	if len(first) != 3 || len(second) != 3 {
		return fmt.Errorf("%w: bipartition sides %d+%d", ErrInternal, len(first), len(second))
	}
	w.Branch = append(first, second...)
	return nil
}

// verify checks that the witness's branch structure is exactly K5 or K3,3
// after suppressing interior path vertices.
func (w *Witness) verify(work *graph.Graph) error {
	// Build the branch multigraph from the paths.
	idx := make(map[int]int, len(w.Branch))
	for i, b := range w.Branch {
		idx[b] = i
	}
	k := len(w.Branch)
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for _, p := range w.Paths {
		a, ok1 := idx[p[0]]
		b, ok2 := idx[p[len(p)-1]]
		if !ok1 || !ok2 {
			return fmt.Errorf("%w: path endpoint not a branch vertex", ErrInternal)
		}
		if a == b {
			return fmt.Errorf("%w: subdivision path is a cycle at branch %d", ErrInternal, p[0])
		}
		if adj[a][b] {
			return fmt.Errorf("%w: parallel subdivision paths between branches", ErrInternal)
		}
		adj[a][b] = true
		adj[b][a] = true
		// Interior vertices must not be branch vertices.
		for _, v := range p[1 : len(p)-1] {
			if _, isB := idx[v]; isB {
				return fmt.Errorf("%w: branch vertex %d interior to a path", ErrInternal, v)
			}
		}
	}
	switch w.Kind {
	case KindK5:
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if !adj[i][j] {
					return fmt.Errorf("%w: K5 witness missing branch edge %d-%d", ErrInternal, i, j)
				}
			}
		}
	case KindK33:
		// The branch graph must be bipartite 3+3 with complete connections.
		side := make([]int, k)
		for i := range side {
			side[i] = -1
		}
		side[0] = 0
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < k; v++ {
				if !adj[u][v] {
					continue
				}
				if side[v] == -1 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				} else if side[v] == side[u] {
					return fmt.Errorf("%w: K3,3 witness branch graph not bipartite", ErrInternal)
				}
			}
		}
		count := [2]int{}
		for _, s := range side {
			if s == -1 {
				return fmt.Errorf("%w: K3,3 witness branch graph disconnected", ErrInternal)
			}
			count[s]++
		}
		if count[0] != 3 || count[1] != 3 {
			return fmt.Errorf("%w: K3,3 witness parts %d+%d", ErrInternal, count[0], count[1])
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if side[i] != side[j] && i != j && !adj[i][j] {
					return fmt.Errorf("%w: K3,3 witness missing cross edge", ErrInternal)
				}
			}
		}
	}
	// Every witness edge must exist in the minimal graph (and hence in G).
	for _, e := range w.Edges {
		if !work.HasEdge(e.U, e.V) {
			return fmt.Errorf("%w: witness edge %v missing", ErrInternal, e)
		}
	}
	return nil
}

// Outerplanar reports whether g is outerplanar, using the apex
// characterisation: g is outerplanar iff g plus a universal vertex is
// planar.
func Outerplanar(g *graph.Graph) bool {
	apex := g.Clone()
	a := apex.MustAddNode(freshID(g))
	for v := 0; v < g.N(); v++ {
		apex.MustAddEdge(a, v)
	}
	return IsPlanar(apex)
}

// freshID returns an identifier not used by any node of g.
func freshID(g *graph.Graph) graph.ID {
	maxID := graph.ID(-1 << 62)
	for _, id := range g.IDs() {
		if id > maxID {
			maxID = id
		}
	}
	return maxID + 1
}
