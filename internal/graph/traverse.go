package graph

// BFSFrom runs a breadth-first search from root and returns the parent
// index of every reached node (parent[root] = root, unreached = -1) and
// the hop distance (unreached = -1).
func (g *Graph) BFSFrom(root int) (parent, dist []int) {
	n := g.N()
	parent = make([]int, n)
	dist = make([]int, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[root] = root
	dist[root] = 0
	queue := make([]int, 0, n)
	queue = append(queue, root)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, dist
}

// Connected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	parent, _ := g.BFSFrom(0)
	for _, p := range parent {
		if p == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components of g as slices of indices.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// SpanningTree returns a BFS spanning tree of connected g rooted at root,
// as a parent slice (parent[root] = root). Returns false if disconnected.
func (g *Graph) SpanningTree(root int) ([]int, bool) {
	parent, _ := g.BFSFrom(root)
	for _, p := range parent {
		if p == -1 {
			return nil, false
		}
	}
	return parent, true
}

// IsTreeEdge reports whether {u,v} is a tree edge of the parent slice.
func IsTreeEdge(parent []int, u, v int) bool {
	return parent[u] == v || parent[v] == u
}

// DegeneracyOrder computes a degeneracy ordering by repeatedly peeling a
// minimum-degree node. It returns the ordering (a permutation of indices)
// and the degeneracy (the maximum degree seen at peel time). For planar
// graphs the degeneracy is at most 5, which is the property Theorem 1 uses
// to spread edge certificates.
func (g *Graph) DegeneracyOrder() (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int32, n) // -1 once peeled
	maxDeg := 0
	for i := 0; i < n; i++ {
		deg[i] = int32(len(g.adj[i]))
		maxDeg = max(maxDeg, len(g.adj[i]))
	}
	// Bucket queue over degrees for O(n + m) peeling. Each bucket is a
	// LIFO stack threaded through one arena: a node is pushed once at the
	// start and once per edge whose other end is peeled first, so n + m
	// entries suffice. Entries left behind by a later decrement are stale
	// and skipped when popped.
	type entry struct{ v, below int32 }
	arena := make([]entry, 0, n+g.M())
	top := make([]int32, maxDeg+1) // arena index of each bucket's top, -1 if empty
	for d := range top {
		top[d] = -1
	}
	for i := 0; i < n; i++ {
		arena = append(arena, entry{int32(i), top[deg[i]]})
		top[deg[i]] = int32(len(arena) - 1)
	}
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n && cur <= maxDeg {
		if top[cur] < 0 {
			cur++
			continue
		}
		e := arena[top[cur]]
		top[cur] = e.below
		u := int(e.v)
		if deg[u] != int32(cur) {
			continue // stale entry (or already peeled)
		}
		deg[u] = -1
		order = append(order, u)
		degeneracy = max(degeneracy, cur)
		for _, v := range g.adj[u] {
			if deg[v] >= 0 {
				deg[v]--
				arena = append(arena, entry{int32(v), top[deg[v]]})
				top[deg[v]] = int32(len(arena) - 1)
				cur = min(cur, int(deg[v]))
			}
		}
	}
	return order, degeneracy
}

// DSU is a disjoint-set union (union-find) with path compression and
// union by rank.
type DSU struct {
	parent []int
	rank   []int
}

// NewDSU returns a DSU over n singleton elements.
func NewDSU(n int) *DSU {
	d := &DSU{parent: make([]int, n), rank: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// Union merges the sets of a and b and reports whether they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// SameSet reports whether a and b belong to the same set.
func (d *DSU) SameSet(a, b int) bool { return d.Find(a) == d.Find(b) }
