package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ID is a node identifier. Identifiers are unique in a network and fit in
// O(log n) bits because they are drawn from a range polynomial in n.
type ID int64

// Edge is an unordered pair of node indices. Normalised so U < V.
type Edge struct {
	U, V int
}

// NewEdge returns the normalised edge {u, v}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e different from x.
func (e Edge) Other(x int) int {
	if e.U == x {
		return e.V
	}
	return e.U
}

// Has reports whether x is an endpoint of e.
func (e Edge) Has(x int) bool { return e.U == x || e.V == x }

// Graph is a mutable undirected simple graph. The zero value is an empty
// graph ready to use; nodes are added implicitly by AddNode/AddEdge.
type Graph struct {
	adj   [][]int       // adjacency lists by node index
	ids   []ID          // node index -> identifier
	byID  map[ID]int    // identifier -> node index
	edges map[Edge]bool // normalised edge set
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		adj:   make([][]int, 0, n),
		ids:   make([]ID, 0, n),
		byID:  make(map[ID]int, n),
		edges: make(map[Edge]bool, 3*n),
	}
}

// Build returns the graph that AddNode over ids, then AddEdge over
// edges (identifier pairs) in order, would build, in one pass: the same
// indices and the same adjacency order. The identifier map and edge set
// are sized up front, and the adjacency lists are carved from one
// degree-counted slab, each capped at its degree so that a later
// AddEdge reallocates instead of running into a neighbour's list. A
// duplicate identifier, an unknown endpoint, a self-loop or a duplicate
// edge is rejected.
func Build[T ~int64](ids []T, edges [][2]T) (*Graph, error) {
	g := &Graph{
		adj:   make([][]int, len(ids)),
		ids:   make([]ID, len(ids)),
		byID:  make(map[ID]int, len(ids)),
		edges: make(map[Edge]bool, len(edges)),
	}
	for i, id := range ids {
		if _, dup := g.byID[ID(id)]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
		g.ids[i] = ID(id)
		g.byID[ID(id)] = i
	}
	ends := make([][2]int, len(edges)) // endpoint indices, as listed
	deg := make([]int, len(ids))
	for k, e := range edges {
		u, ok1 := g.byID[ID(e[0])]
		v, ok2 := g.byID[ID(e[1])]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: edge {%d,%d}", ErrNoSuchNode, e[0], e[1])
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at index %d", u)
		}
		ne := NewEdge(u, v)
		if g.edges[ne] {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
		}
		g.edges[ne] = true
		ends[k] = [2]int{u, v}
		deg[u]++
		deg[v]++
	}
	slab := make([]int, 2*len(edges))
	off := 0
	for u, d := range deg {
		if d > 0 {
			g.adj[u] = slab[off : off : off+d]
			off += d
		}
	}
	for _, e := range ends {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	return g, nil
}

// NewWithNodes returns a graph with nodes 0..n-1 whose identifiers equal
// their indices. Tests and generators can rescramble IDs afterwards.
func NewWithNodes(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(ID(i))
	}
	return g
}

// ErrDuplicateID is returned when adding a node whose identifier is taken.
var ErrDuplicateID = errors.New("graph: duplicate node identifier")

// ErrNoSuchNode is returned when a lookup references an unknown node.
var ErrNoSuchNode = errors.New("graph: no such node")

// AddNode adds a node with the given identifier and returns its index.
// Adding a duplicate identifier returns the existing index and an error.
func (g *Graph) AddNode(id ID) (int, error) {
	if g.byID == nil {
		g.byID = make(map[ID]int)
	}
	if idx, ok := g.byID[id]; ok {
		return idx, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	idx := len(g.adj)
	g.adj = append(g.adj, nil)
	g.ids = append(g.ids, id)
	g.byID[id] = idx
	return idx, nil
}

// MustAddNode adds a node and panics on duplicate identifiers. It is meant
// for generators and tests where identifiers are constructed to be unique.
func (g *Graph) MustAddNode(id ID) int {
	idx, err := g.AddNode(id)
	if err != nil {
		panic(err)
	}
	return idx
}

// AddEdge inserts the undirected edge {u, v} given by node indices.
// Self-loops and duplicate edges are rejected with an error (the model
// works on simple graphs; the paper notes loops and multi-edges do not
// affect planarity).
func (g *Graph) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at index %d", u)
	}
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: edge {%d,%d}", ErrNoSuchNode, u, v)
	}
	e := NewEdge(u, v)
	if g.edges == nil {
		g.edges = make(map[Edge]bool)
	}
	if g.edges[e] {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.edges[e] = true
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// MustAddEdge inserts an edge and panics on structural misuse.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	e := NewEdge(u, v)
	if !g.edges[e] {
		return false
	}
	delete(g.edges, e)
	g.adj[u] = removeFirst(g.adj[u], v)
	g.adj[v] = removeFirst(g.adj[v], u)
	return true
}

func removeFirst(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// HasEdge reports whether the edge {u, v} exists (by node index).
func (g *Graph) HasEdge(u, v int) bool { return g.edges[NewEdge(u, v)] }

// Neighbors returns the adjacency list of node u. The returned slice is
// owned by the graph and must not be mutated by callers.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// IDOf returns the identifier of the node at index u.
func (g *Graph) IDOf(u int) ID { return g.ids[u] }

// IndexOf returns the index of the node with identifier id.
func (g *Graph) IndexOf(id ID) (int, bool) {
	idx, ok := g.byID[id]
	return idx, ok
}

// IDs returns a copy of the index -> identifier table.
func (g *Graph) IDs() []ID {
	out := make([]ID, len(g.ids))
	copy(out, g.ids)
	return out
}

// Edges returns all edges in deterministic (sorted) order. It buckets
// every edge {u, v}, u < v, under u while visiting v in ascending order,
// so each bucket fills already sorted: O(n + m), no comparison sort.
func (g *Graph) Edges() []Edge {
	n := len(g.adj)
	next := make([]int, n+1) // next[u]: output slot of u's next edge
	for u, nb := range g.adj {
		up := 0
		for _, v := range nb {
			if v > u {
				up++
			}
		}
		next[u+1] = next[u] + up
	}
	out := make([]Edge, next[n])
	for v, nb := range g.adj {
		for _, u := range nb {
			if u < v {
				out[next[u]] = Edge{U: u, V: v}
				next[u]++
			}
		}
	}
	return out
}

// Clone returns a deep copy of g. Adjacency lists keep their order, so
// a clone embeds, traverses and certifies exactly like the original.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]int, len(g.adj)),
		ids:   slices.Clone(g.ids),
		byID:  maps.Clone(g.byID),
		edges: maps.Clone(g.edges),
	}
	for u, nb := range g.adj {
		c.adj[u] = slices.Clone(nb)
	}
	return c
}

// SortedNeighbors returns a sorted copy of node u's adjacency list.
func (g *Graph) SortedNeighbors(u int) []int {
	out := make([]int, len(g.adj[u]))
	copy(out, g.adj[u])
	sort.Ints(out)
	return out
}

// RelabelIDs returns a copy of g whose node at index i carries ids[i].
// It fails if len(ids) != N or identifiers collide.
func (g *Graph) RelabelIDs(ids []ID) (*Graph, error) {
	if len(ids) != g.N() {
		return nil, fmt.Errorf("graph: relabel with %d ids for %d nodes", len(ids), g.N())
	}
	c := g.Clone()
	c.ids = slices.Clone(ids)
	c.byID = make(map[ID]int, len(ids))
	for i, id := range ids {
		if _, dup := c.byID[id]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
		c.byID[id] = i
	}
	return c, nil
}

// InducedSubgraph returns the subgraph induced by keep (indices into g),
// preserving identifiers and the relative order of each adjacency list.
// The second return value maps old index -> new.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, map[int]int) {
	sub := New(len(keep))
	old2new := make(map[int]int, len(keep))
	for _, u := range keep {
		old2new[u] = sub.MustAddNode(g.ids[u])
	}
	for _, u := range keep {
		nu := old2new[u]
		for _, v := range g.adj[u] {
			if nv, ok := old2new[v]; ok {
				sub.adj[nu] = append(sub.adj[nu], nv)
				sub.edges[NewEdge(nu, nv)] = true
			}
		}
	}
	return sub, old2new
}

// String renders a compact description, useful in test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.N(), g.M())
}
