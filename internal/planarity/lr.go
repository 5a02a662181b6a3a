// Package planarity implements a linear-time planarity test with
// combinatorial-embedding extraction, plus Kuratowski-subgraph extraction
// and an outerplanarity test.
//
// The test is the left-right (LR) algorithm of de Fraysseix and Rosenstiehl,
// in the formulation of Brandes ("The left-right planarity test"). This is
// the algorithmic face of the Trémaux-order theory that Feuilloley et al.
// (PODC 2020) build their proof-labeling scheme on: a graph is planar iff
// the cotree edges of a DFS tree can be 2-coloured (left/right) so that
// same-side return edges nest. On success the algorithm yields a rotation
// system (a planar combinatorial embedding); every embedding produced here
// is additionally auditable with an Euler-formula check (embedding.IsPlanar).
package planarity

import (
	"errors"
	"fmt"

	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
)

// ErrInternal reports an internal invariant violation in the LR test. It
// should never be observed; it exists so that library code fails loudly
// without panicking.
var ErrInternal = errors.New("planarity: internal invariant violation")

const none = -1 // sentinel for "no edge" / "no vertex"

// interval is a maximal set of return edges sharing the same side,
// represented by its extreme edges (ids into the lr state), or empty.
type interval struct {
	low, high int32
}

func (i interval) empty() bool { return i.low == none && i.high == none }

// conflictPair groups the return-edge intervals of the left and right side.
type conflictPair struct {
	l, r interval
}

func emptyInterval() interval { return interval{low: none, high: none} }

func (p *conflictPair) swap() { p.l, p.r = p.r, p.l }

// halfEdge is one endpoint's view of an edge: the neighbour it leads to
// and the edge id.
type halfEdge struct {
	to, edge int32
}

// lr holds the whole algorithm state. Edges are numbered in sorted (U,V)
// order; vertex v's half-edges are adj[adjStart[v]:adjStart[v+1]], in the
// graph's adjacency order. The alive mask takes edges out of the tested
// graph, so one lr tests many subgraphs of g, each in O(n+m) time and
// without allocating.
type lr struct {
	n    int
	m    int
	live int // number of alive edges

	elist    []graph.Edge // edge id -> undirected edge
	alive    []bool       // edge id -> part of the tested graph
	adjStart []int32      // vertex -> offset of its half-edges in adj
	adj      []halfEdge
	from     []int32 // edge id -> tail after orientation (none if unoriented)
	to       []int32 // edge id -> head after orientation

	height     []int32 // vertex -> DFS height (none = unvisited)
	parentEdge []int32 // vertex -> incoming tree edge id (none at roots)
	roots      []int32

	lowpt    []int32
	lowpt2   []int32
	nesting  []int32
	ref      []int32
	side     []int8
	lowptE   []int32 // lowpt_edge
	stackBot []int32 // per-edge stack height snapshot

	// Oriented edge ids grouped by tail, each group sorted by nesting
	// depth: vertex v's outgoing edges are out[outStart[v]:outStart[v+1]].
	outStart []int32
	out      []int32
	byDepth  []int32 // counting-sort scratch
	count    []int32 // counting-sort buckets

	s     []conflictPair
	chain []int32 // resolveSign scratch
	err   error   // internal invariant violation, if any
}

// Check tests g for planarity. If planar it returns (true, rotation, nil)
// where rotation is a planar combinatorial embedding of g; otherwise
// (false, nil, nil). The error return is reserved for internal invariant
// violations and never fires on valid inputs.
func Check(g *graph.Graph) (bool, *embedding.Rotation, error) {
	n, m := g.N(), g.M()
	if n > 2 && m > 3*n-6 {
		return false, nil, nil // Euler bound: too many edges to be planar
	}
	st := newLR(g)
	if planar, err := st.planar(); !planar || err != nil {
		return false, nil, err
	}
	rot, err := st.embed()
	if err != nil {
		return false, nil, err
	}
	return true, rot, nil
}

// IsPlanar is a convenience wrapper around Check discarding the embedding.
func IsPlanar(g *graph.Graph) bool {
	ok, _, _ := Check(g)
	return ok
}

// newLR builds the half-edge lists of g in O(n+m), with every edge alive.
func newLR(g *graph.Graph) *lr {
	n := g.N()
	// first[u] is the id of u's first edge {u, w > u}.
	adjStart := make([]int32, n+1)
	first := make([]int32, n+1)
	for u := 0; u < n; u++ {
		adjStart[u+1] = adjStart[u] + int32(g.Degree(u))
		up := int32(0)
		for _, w := range g.Neighbors(u) {
			if w > u {
				up++
			}
		}
		first[u+1] = first[u] + up
	}
	m := int(first[n])
	st := &lr{
		n:          n,
		m:          m,
		live:       m,
		elist:      make([]graph.Edge, m),
		alive:      make([]bool, m),
		adjStart:   adjStart,
		adj:        make([]halfEdge, 2*m),
		from:       make([]int32, m),
		to:         make([]int32, m),
		height:     make([]int32, n),
		parentEdge: make([]int32, n),
		lowpt:      make([]int32, m),
		lowpt2:     make([]int32, m),
		nesting:    make([]int32, m),
		ref:        make([]int32, m),
		side:       make([]int8, m),
		lowptE:     make([]int32, m),
		stackBot:   make([]int32, m),
		outStart:   make([]int32, n+1),
		out:        make([]int32, m),
		byDepth:    make([]int32, m),
		count:      make([]int32, 4*n+1),
	}
	// Visiting v in ascending order fills each u's id range with its
	// higher neighbours in ascending order: the sorted edge numbering.
	fill := st.count[:n]
	copy(fill, first[:n])
	for v := 0; v < n; v++ {
		for i, u := range g.Neighbors(v) {
			if u < v {
				id := fill[u]
				fill[u]++
				st.elist[id] = graph.Edge{U: u, V: v}
				st.adj[adjStart[v]+int32(i)] = halfEdge{to: int32(u), edge: id}
			}
		}
	}
	// The half-edges {u -> w > u}: find each higher neighbour's slot in
	// u's list, then walk u's id range.
	pos := fill
	for u := 0; u < n; u++ {
		for i, w := range g.Neighbors(u) {
			if w > u {
				pos[w] = int32(i)
			}
		}
		for id := first[u]; id < first[u+1]; id++ {
			w := st.elist[id].V
			st.adj[adjStart[u]+pos[w]] = halfEdge{to: int32(w), edge: id}
		}
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	return st
}

// setAlive puts the edges with ids in [lo, hi), all currently in the
// other state, into the tested graph or takes them out of it.
func (st *lr) setAlive(lo, hi int, alive bool) {
	for ei := lo; ei < hi; ei++ {
		st.alive[ei] = alive
	}
	if alive {
		st.live += hi - lo
	} else {
		st.live -= hi - lo
	}
}

// drop takes the alive edges [lo, hi) out of the tested graph and reports
// whether it stays non-planar. If it does not, the edges are put back.
func (st *lr) drop(lo, hi int) (bool, error) {
	st.setAlive(lo, hi, false)
	planar, err := st.planar()
	if planar {
		st.setAlive(lo, hi, true)
	}
	return !planar && err == nil, err
}

// planar runs the orientation and testing phases on the alive edges. It
// may be called again after changing the mask; every run starts from a
// clean state.
func (st *lr) planar() (bool, error) {
	if st.n > 2 && st.live > 3*st.n-6 {
		return false, nil // Euler bound
	}
	for i := 0; i < st.m; i++ {
		st.from[i] = none
		st.to[i] = none
		st.ref[i] = none
		st.side[i] = 1
		st.lowptE[i] = none
	}
	for v := 0; v < st.n; v++ {
		st.height[v] = none
		st.parentEdge[v] = none
	}
	st.roots = st.roots[:0]
	st.s = st.s[:0]
	st.orient()
	planar := st.test()
	if st.err != nil {
		return false, st.err
	}
	return planar, nil
}

// orient runs the orientation DFS (phase 1): it orients every edge, builds
// the DFS forest, and computes lowpt, lowpt2 and nesting depth per edge.
func (st *lr) orient() {
	for v := 0; v < st.n; v++ {
		if st.height[v] == none {
			st.height[v] = 0
			st.roots = append(st.roots, int32(v))
			st.dfs1(int32(v))
		}
	}
}

func (st *lr) dfs1(v int32) {
	e := st.parentEdge[v]
	for _, h := range st.adj[st.adjStart[v]:st.adjStart[v+1]] {
		ei, w := h.edge, h.to
		if !st.alive[ei] || st.from[ei] != none {
			continue // masked out, or already oriented (from the other side, or parent)
		}
		st.from[ei] = v
		st.to[ei] = w
		st.lowpt[ei] = st.height[v]
		st.lowpt2[ei] = st.height[v]
		if st.height[w] == none { // tree edge
			st.parentEdge[w] = ei
			st.height[w] = st.height[v] + 1
			st.dfs1(w)
		} else { // back edge
			st.lowpt[ei] = st.height[w]
		}
		// Nesting depth: interleaved ordering key for phase 2.
		st.nesting[ei] = 2 * st.lowpt[ei]
		if st.lowpt2[ei] < st.height[v] { // chordal: needs to be nested deeper
			st.nesting[ei]++
		}
		// Propagate lowpoints to the parent edge.
		if e != none {
			switch {
			case st.lowpt[ei] < st.lowpt[e]:
				st.lowpt2[e] = min32(st.lowpt[e], st.lowpt2[ei])
				st.lowpt[e] = st.lowpt[ei]
			case st.lowpt[ei] > st.lowpt[e]:
				st.lowpt2[e] = min32(st.lowpt2[e], st.lowpt[ei])
			default:
				st.lowpt2[e] = min32(st.lowpt2[e], st.lowpt2[ei])
			}
		}
	}
}

// sortOutgoing (re)builds the outgoing lists sorted by the current
// nesting depths, ties in edge-id order: a stable counting sort by depth,
// then a stable counting sort by tail. Depths lie in (-2n, 2n), so both
// passes are O(n+m).
func (st *lr) sortOutgoing() {
	off := int32(2 * st.n)
	count := st.count
	clear(count)
	k := 0
	for ei := 0; ei < st.m; ei++ {
		if st.from[ei] != none {
			count[st.nesting[ei]+off]++
			k++
		}
	}
	sum := int32(0)
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	byDepth := st.byDepth[:k]
	for ei := 0; ei < st.m; ei++ {
		if st.from[ei] != none {
			d := st.nesting[ei] + off
			byDepth[count[d]] = int32(ei)
			count[d]++
		}
	}
	clear(st.outStart)
	for _, ei := range byDepth {
		st.outStart[st.from[ei]+1]++
	}
	for v := 0; v < st.n; v++ {
		st.outStart[v+1] += st.outStart[v]
	}
	fill := count[:st.n]
	copy(fill, st.outStart[:st.n])
	for _, ei := range byDepth {
		v := st.from[ei]
		st.out[fill[v]] = ei
		fill[v]++
	}
}

// outgoing returns v's oriented edges in nesting-depth order.
func (st *lr) outgoing(v int32) []int32 {
	return st.out[st.outStart[v]:st.outStart[v+1]]
}

// test runs the testing DFS (phase 2) and reports planarity.
func (st *lr) test() bool {
	st.sortOutgoing()
	for _, r := range st.roots {
		if !st.dfs2(r) {
			return false
		}
	}
	return true
}

func (st *lr) top() *conflictPair { return &st.s[len(st.s)-1] }

func (st *lr) pop() conflictPair {
	if len(st.s) == 0 {
		st.err = fmt.Errorf("%w: pop of empty conflict-pair stack", ErrInternal)
		return conflictPair{l: emptyInterval(), r: emptyInterval()}
	}
	p := st.s[len(st.s)-1]
	st.s = st.s[:len(st.s)-1]
	return p
}

func (st *lr) conflicting(i interval, b int32) bool {
	return !i.empty() && st.lowpt[i.high] > st.lowpt[b]
}

func (st *lr) lowest(p conflictPair) int32 {
	if p.l.empty() {
		return st.lowpt[p.r.low]
	}
	if p.r.empty() {
		return st.lowpt[p.l.low]
	}
	return min32(st.lowpt[p.l.low], st.lowpt[p.r.low])
}

func (st *lr) dfs2(v int32) bool {
	e := st.parentEdge[v]
	for idx, ei := range st.outgoing(v) {
		st.stackBot[ei] = int32(len(st.s))
		if st.parentEdge[st.to[ei]] == ei { // tree edge
			if !st.dfs2(st.to[ei]) {
				return false
			}
		} else { // back edge
			st.lowptE[ei] = ei
			st.s = append(st.s, conflictPair{l: emptyInterval(), r: interval{low: ei, high: ei}})
		}
		if st.lowpt[ei] < st.height[v] { // ei has a return edge below v
			if idx == 0 {
				if e != none {
					st.lowptE[e] = st.lowptE[ei]
				}
			} else if !st.addConstraints(ei, e) {
				return false
			}
		}
	}
	if e != none {
		u := st.from[e]
		st.trimBackEdges(u)
		// Side of e is the side of a highest return edge.
		if st.lowpt[e] < st.height[u] {
			if len(st.s) == 0 {
				st.err = fmt.Errorf("%w: empty stack at side resolution", ErrInternal)
				return false
			}
			hl := st.top().l.high
			hr := st.top().r.high
			if hl != none && (hr == none || st.lowpt[hl] > st.lowpt[hr]) {
				st.ref[e] = hl
			} else {
				st.ref[e] = hr
			}
		}
	}
	return true
}

func (st *lr) addConstraints(ei, e int32) bool {
	p := conflictPair{l: emptyInterval(), r: emptyInterval()}
	// Merge return edges of ei into p.r.
	for {
		q := st.pop()
		if st.err != nil {
			return false
		}
		if !q.l.empty() {
			q.swap()
		}
		if !q.l.empty() {
			return false // not planar
		}
		if st.lowpt[q.r.low] > st.lowpt[e] {
			// Merge intervals.
			if p.r.empty() {
				p.r.high = q.r.high
			} else {
				st.ref[p.r.low] = q.r.high
			}
			p.r.low = q.r.low
		} else {
			// Align with the parent edge's lowpoint edge.
			st.ref[q.r.low] = st.lowptE[e]
		}
		if int32(len(st.s)) == st.stackBot[ei] {
			break
		}
	}
	// Merge conflicting return edges of e_1, ..., e_{i-1} into p.l.
	for len(st.s) > 0 && (st.conflicting(st.top().l, ei) || st.conflicting(st.top().r, ei)) {
		q := st.pop()
		if st.conflicting(q.r, ei) {
			q.swap()
		}
		if st.conflicting(q.r, ei) {
			return false // not planar
		}
		// Merge interval below lowpt(ei) into p.r.
		if p.r.low != none {
			st.ref[p.r.low] = q.r.high
		}
		if q.r.low != none {
			p.r.low = q.r.low
		}
		if p.l.empty() {
			p.l.high = q.l.high
		} else {
			st.ref[p.l.low] = q.l.high
		}
		p.l.low = q.l.low
	}
	if !(p.l.empty() && p.r.empty()) {
		st.s = append(st.s, p)
	}
	return true
}

func (st *lr) trimBackEdges(u int32) {
	// Drop entire conflict pairs whose lowest return point is u.
	for len(st.s) > 0 && st.lowest(st.s[len(st.s)-1]) == st.height[u] {
		p := st.pop()
		if p.l.low != none {
			st.side[p.l.low] = -1
		}
	}
	if len(st.s) == 0 {
		return
	}
	// One more conflict pair to consider: trim its intervals.
	p := st.pop()
	for p.l.high != none && st.to[p.l.high] == u {
		p.l.high = st.ref[p.l.high]
	}
	if p.l.high == none && p.l.low != none {
		// Left interval just emptied.
		st.ref[p.l.low] = p.r.low
		st.side[p.l.low] = -1
		p.l.low = none
	}
	for p.r.high != none && st.to[p.r.high] == u {
		p.r.high = st.ref[p.r.high]
	}
	if p.r.high == none && p.r.low != none {
		st.ref[p.r.low] = p.l.low
		st.side[p.r.low] = -1
		p.r.low = none
	}
	st.s = append(st.s, p)
}

// resolveSign resolves side(e) through the ref chain, memoising results.
func (st *lr) resolveSign(e int32) int8 {
	// Iterative resolution to avoid deep recursion on ref chains.
	chain := st.chain[:0]
	x := e
	for st.ref[x] != none {
		chain = append(chain, x)
		x = st.ref[x]
	}
	st.chain = chain
	s := st.side[x]
	for i := len(chain) - 1; i >= 0; i-- {
		st.side[chain[i]] *= s
		s = st.side[chain[i]]
		st.ref[chain[i]] = none
	}
	return s
}

// half returns the half-edge id in [0, 2m) of edge ei leaving tail.
func (st *lr) half(ei, tail int32) int32 {
	if st.elist[ei].U == int(tail) {
		return 2 * ei
	}
	return 2*ei + 1
}

// rotationBuilder is a set of doubly-linked half-edge lists, one per
// vertex, supporting O(1) insertion relative to a reference half-edge.
type rotationBuilder struct {
	st    *lr
	next  []int32 // half-edge -> next half-edge in rotation of its tail
	prev  []int32
	first []int32 // vertex -> first half-edge (none if empty)
	last  []int32
	count []int32
}

func newRotationBuilder(st *lr) *rotationBuilder {
	b := &rotationBuilder{
		st:    st,
		next:  make([]int32, 2*st.m),
		prev:  make([]int32, 2*st.m),
		first: make([]int32, st.n),
		last:  make([]int32, st.n),
		count: make([]int32, st.n),
	}
	for i := range b.next {
		b.next[i] = none
		b.prev[i] = none
	}
	for v := range b.first {
		b.first[v] = none
		b.last[v] = none
	}
	return b
}

// append adds half-edge he at the end of v's list.
func (b *rotationBuilder) append(v, he int32) {
	if b.first[v] == none {
		b.first[v] = he
		b.last[v] = he
	} else {
		b.next[b.last[v]] = he
		b.prev[he] = b.last[v]
		b.last[v] = he
	}
	b.count[v]++
}

// prependFirst adds half-edge he at the front of v's list.
func (b *rotationBuilder) prependFirst(v, he int32) {
	if b.first[v] == none {
		b.first[v] = he
		b.last[v] = he
	} else {
		b.next[he] = b.first[v]
		b.prev[b.first[v]] = he
		b.first[v] = he
	}
	b.count[v]++
}

// insertAfter inserts half-edge he immediately after rhe in v's list.
func (b *rotationBuilder) insertAfter(v, he, rhe int32) {
	nxt := b.next[rhe]
	b.next[rhe] = he
	b.prev[he] = rhe
	b.next[he] = nxt
	if nxt == none {
		b.last[v] = he
	} else {
		b.prev[nxt] = he
	}
	b.count[v]++
}

// insertBefore inserts half-edge he immediately before rhe in v's list.
func (b *rotationBuilder) insertBefore(v, he, rhe int32) {
	prv := b.prev[rhe]
	b.prev[rhe] = he
	b.next[he] = rhe
	b.prev[he] = prv
	if prv == none {
		b.first[v] = he
	} else {
		b.next[prv] = he
	}
	b.count[v]++
}

// build materialises the linked lists into a Rotation. It expects every
// edge to be alive.
func (b *rotationBuilder) build() (*embedding.Rotation, error) {
	st := b.st
	rot := embedding.NewRotation(st.n)
	slab := make([]int, 2*st.m)
	for v := 0; v < st.n; v++ {
		lo, hi := st.adjStart[v], st.adjStart[v+1]
		if b.count[v] != hi-lo {
			return nil, fmt.Errorf("%w: vertex %d has %d half-edges, degree %d",
				ErrInternal, v, b.count[v], hi-lo)
		}
		order := slab[lo:lo:hi]
		for he := b.first[v]; he != none; he = b.next[he] {
			e := st.elist[he/2]
			tail := e.U
			if he%2 == 1 {
				tail = e.V
			}
			if tail != v {
				return nil, fmt.Errorf("%w: half-edge %d in list of %d has tail %d",
					ErrInternal, he, v, tail)
			}
			order = append(order, e.Other(tail))
		}
		rot.Order[v] = order
	}
	return rot, nil
}

// embed runs the embedding phase (phase 3) and returns a planar rotation
// system for g. It expects every edge to be alive.
func (st *lr) embed() (*embedding.Rotation, error) {
	// Resolve sides and fold them into the nesting depths.
	for ei := 0; ei < st.m; ei++ {
		if st.from[ei] == none {
			continue
		}
		st.nesting[ei] *= int32(st.resolveSign(int32(ei)))
	}
	st.sortOutgoing()

	b := newRotationBuilder(st)
	// Place outgoing half-edges of every vertex in signed nesting order.
	for v := int32(0); v < int32(st.n); v++ {
		for _, ei := range st.outgoing(v) {
			b.append(v, st.half(ei, v))
		}
	}
	// leftRef/rightRef hold half-edges leaving their vertex.
	leftRef := make([]int32, st.n)
	rightRef := make([]int32, st.n)
	for i := range leftRef {
		leftRef[i] = none
		rightRef[i] = none
	}
	for _, r := range st.roots {
		if err := st.dfs3(r, b, leftRef, rightRef); err != nil {
			return nil, err
		}
	}
	return b.build()
}

func (st *lr) dfs3(v int32, b *rotationBuilder, leftRef, rightRef []int32) error {
	for _, ei := range st.outgoing(v) {
		w := st.to[ei]
		if st.parentEdge[w] == ei { // tree edge: place (w -> v) first at w
			b.prependFirst(w, st.half(ei, w))
			leftRef[v] = st.half(ei, v)
			rightRef[v] = leftRef[v]
			if err := st.dfs3(w, b, leftRef, rightRef); err != nil {
				return err
			}
		} else { // back edge (v -> w): insert at the ancestor w
			if rightRef[w] == none {
				return fmt.Errorf("%w: back edge (%d,%d) before any tree edge at %d",
					ErrInternal, v, w, w)
			}
			he := st.half(ei, w)
			if st.side[ei] == 1 {
				b.insertAfter(w, he, rightRef[w])
			} else {
				b.insertBefore(w, he, leftRef[w])
				leftRef[w] = he
			}
		}
	}
	return nil
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
