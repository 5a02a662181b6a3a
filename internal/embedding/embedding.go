// Package embedding implements combinatorial embeddings (rotation systems)
// of graphs, face traversal, and the Euler-formula audit used to validate
// that a rotation system is a genuine planar embedding.
//
// A rotation system fixes, for every vertex, a cyclic order of its incident
// half-edges. A rotation system determines a set of faces by the standard
// face-tracing rule: from the directed edge (u,v), the next directed edge is
// (v,w) where w is the successor of u in the rotation at v. The rotation
// system is planar (genus 0) iff n - m + f = 1 + c for c connected
// components, i.e. n - m + f = 2 for connected graphs.
package embedding

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/graph"
)

// Rotation is a combinatorial embedding: Order[u] lists the neighbors of u
// in (counter)clockwise cyclic order. Which geometric orientation "first"
// corresponds to is irrelevant combinatorially; all algorithms in this
// module only rely on consistency.
type Rotation struct {
	Order [][]int
}

// NewRotation returns an empty rotation system for n vertices.
func NewRotation(n int) *Rotation {
	return &Rotation{Order: make([][]int, n)}
}

// FromAdjacency builds a rotation system that uses the graph's adjacency
// order as the cyclic order. This is *a* rotation system, not necessarily a
// planar one; useful for tests.
func FromAdjacency(g *graph.Graph) *Rotation {
	r := NewRotation(g.N())
	for u := 0; u < g.N(); u++ {
		r.Order[u] = append([]int(nil), g.Neighbors(u)...)
	}
	return r
}

// Validate checks that the rotation system matches the graph: every vertex
// lists exactly its neighbors, once each. One stamp array marks u's
// neighbors (u+1) and flips each mark (-(u+1)) as the rotation lists it,
// so the check is O(n + m) with no per-vertex set.
func (r *Rotation) Validate(g *graph.Graph) error {
	n := g.N()
	if len(r.Order) != n {
		return fmt.Errorf("embedding: rotation has %d vertices, graph has %d", len(r.Order), n)
	}
	mark := make([]int32, n)
	for u := 0; u < n; u++ {
		if len(r.Order[u]) != g.Degree(u) {
			return fmt.Errorf("embedding: vertex %d rotation lists %d neighbors, degree is %d",
				u, len(r.Order[u]), g.Degree(u))
		}
		tag := int32(u + 1)
		for _, v := range g.Neighbors(u) {
			mark[v] = tag
		}
		for _, v := range r.Order[u] {
			switch {
			case v < 0 || v >= n || (mark[v] != tag && mark[v] != -tag):
				return fmt.Errorf("embedding: rotation at %d lists non-neighbor %d", u, v)
			case mark[v] == -tag:
				return fmt.Errorf("embedding: rotation at %d lists %d twice", u, v)
			}
			mark[v] = -tag
		}
	}
	return nil
}

// Darts indexes the half-edges ("darts") of a rotation system that
// matches its graph. The darts leaving u are Off[u] .. Off[u+1]-1 in
// rotation order: dart Off[u]+i points at Order[u][i]. Rev[d] is the
// dart opposite d. Edges lists the graph's edges in graph.Edges order
// (sorted by lower, then higher endpoint), and Lo[e] is the dart of
// edge e leaving its lower endpoint, so Rev[Lo[e]] leaves the higher.
type Darts struct {
	Off   []int32
	Rev   []int32
	Edges []graph.Edge
	Lo    []int32
	order [][]int
}

// Index validates r against g and returns its dart index.
func (r *Rotation) Index(g *graph.Graph) (*Darts, error) {
	if err := r.Validate(g); err != nil {
		return nil, err
	}
	return r.darts(), nil
}

// darts builds the index in O(n + m) without sorting: visiting every
// higher endpoint v in ascending order fills each lower endpoint's run
// of edge ids already sorted (the graph.Edges bucketing), recording the
// dart at v; a second pass over each lower endpoint's rotation pairs it
// with its own dart. The rotation must match its graph (Validate).
func (r *Rotation) darts() *Darts {
	n := len(r.Order)
	off := make([]int32, n+1)
	next := make([]int32, n+1) // next[u]: id of u's next edge {u, v > u}
	for u, rot := range r.Order {
		off[u+1] = off[u] + int32(len(rot))
		up := int32(0)
		for _, v := range rot {
			if v > u {
				up++
			}
		}
		next[u+1] = next[u] + up
	}
	m := next[n]
	d := &Darts{
		Off:   off,
		Rev:   make([]int32, off[n]),
		Edges: make([]graph.Edge, m),
		Lo:    make([]int32, m),
		order: r.Order,
	}
	hi := d.Lo // holds each edge's dart at its higher endpoint until paired
	for v, rot := range r.Order {
		for j, u := range rot {
			if u < v {
				id := next[u]
				next[u]++
				d.Edges[id] = graph.Edge{U: u, V: v}
				hi[id] = off[v] + int32(j)
			}
		}
	}
	where := next[:n] // reused: where[w] is u's dart towards w > u
	id := int32(0)
	for u, rot := range r.Order {
		for i, w := range rot {
			if w > u {
				where[w] = off[u] + int32(i)
			}
		}
		for ; id < m && d.Edges[id].U == u; id++ {
			lo, h := where[d.Edges[id].V], hi[id]
			d.Rev[lo], d.Rev[h] = h, lo
			d.Lo[id] = lo
		}
	}
	return d
}

// Genus computes the total orientable genus of the indexed rotation
// system, as Rotation.Genus does, tracing faces over the dart arrays.
func (d *Darts) Genus() int {
	n := len(d.order)
	// Connected components by BFS over the rotation (= adjacency).
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	var per [][3]int // per component: vertices, darts, faces
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := int32(len(per))
		per = append(per, [3]int{})
		comp[s] = c
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			per[c][0]++
			per[c][1] += len(d.order[u])
			for _, v := range d.order[u] {
				if comp[v] < 0 {
					comp[v] = c
					queue = append(queue, int32(v))
				}
			}
		}
	}
	// Faces: from dart (u -> v) the face continues with the dart after
	// Rev at v, i.e. (v -> successor of u in v's rotation).
	seen := make([]bool, len(d.Rev))
	for s := 0; s < n; s++ {
		for d0 := d.Off[s]; d0 < d.Off[s+1]; d0++ {
			if seen[d0] {
				continue
			}
			per[comp[s]][2]++
			u, x := int32(s), d0
			for !seen[x] {
				seen[x] = true
				v := int32(d.order[u][x-d.Off[u]])
				x = d.Rev[x] + 1
				if x == d.Off[v+1] {
					x = d.Off[v]
				}
				u = v
			}
		}
	}
	total := 0
	for _, c := range per {
		nc, mc, fc := c[0], c[1]/2, c[2]
		if mc == 0 {
			fc = 1 // an isolated vertex has exactly one face
		}
		total += (2 - nc + mc - fc) / 2
	}
	return total
}

// half identifies the directed edge (u -> v).
type half struct{ u, v int }

// next returns, for the directed edge (u,v), the directed edge that follows
// it on the same face: (v, w) with w the successor of u in rotation at v.
func (r *Rotation) next(u, v int) (int, int) {
	rot := r.Order[v]
	for i, x := range rot {
		if x == u {
			return v, rot[(i+1)%len(rot)]
		}
	}
	// Unreachable for validated rotations.
	return v, u
}

// Faces traces every face of the rotation system. Each face is returned as
// the cyclic sequence of vertices visited (one entry per directed edge on
// the face boundary).
func (r *Rotation) Faces() [][]int {
	visited := make(map[half]bool)
	var faces [][]int
	for u := range r.Order {
		for _, v := range r.Order[u] {
			if visited[half{u, v}] {
				continue
			}
			var face []int
			cu, cv := u, v
			for !visited[half{cu, cv}] {
				visited[half{cu, cv}] = true
				face = append(face, cu)
				cu, cv = r.next(cu, cv)
			}
			faces = append(faces, face)
		}
	}
	return faces
}

// Genus computes the total (orientable) genus of the rotation system on
// graph g, summed over connected components. For each component, Euler's
// relation on its embedding surface gives n_c - m_c + f_c = 2 - 2*genus_c,
// where f_c counts the faces traced within that component (an isolated
// vertex traces no half-edge and contributes its single face directly).
// r must match g (see Validate); the count runs in O(n + m) over Darts.
func (r *Rotation) Genus(g *graph.Graph) int {
	return r.darts().Genus()
}

// IsPlanar reports whether the rotation system is a planar (genus-0)
// embedding of g, after validating structural consistency.
func (r *Rotation) IsPlanar(g *graph.Graph) (bool, error) {
	d, err := r.Index(g)
	if err != nil {
		return false, err
	}
	if g.N() == 0 {
		return true, nil
	}
	return d.Genus() == 0, nil
}

// PositionOf returns the index of neighbor v in u's rotation, or -1.
func (r *Rotation) PositionOf(u, v int) int {
	for i, x := range r.Order[u] {
		if x == v {
			return i
		}
	}
	return -1
}

// InsertAfter inserts neighbor w into u's rotation immediately after ref.
// If ref is -1 (or u's rotation is empty), w is appended.
func (r *Rotation) InsertAfter(u, ref, w int) {
	if ref < 0 || len(r.Order[u]) == 0 {
		r.Order[u] = append(r.Order[u], w)
		return
	}
	i := r.PositionOf(u, ref)
	if i < 0 {
		r.Order[u] = append(r.Order[u], w)
		return
	}
	r.Order[u] = append(r.Order[u], 0)
	copy(r.Order[u][i+2:], r.Order[u][i+1:])
	r.Order[u][i+1] = w
}

// InsertBefore inserts neighbor w into u's rotation immediately before ref.
func (r *Rotation) InsertBefore(u, ref, w int) {
	if ref < 0 || len(r.Order[u]) == 0 {
		r.Order[u] = append(r.Order[u], w)
		return
	}
	i := r.PositionOf(u, ref)
	if i < 0 {
		r.Order[u] = append(r.Order[u], w)
		return
	}
	r.Order[u] = append(r.Order[u], 0)
	copy(r.Order[u][i+1:], r.Order[u][i:])
	r.Order[u][i] = w
}

// PrependFirst inserts w at the front of u's rotation.
func (r *Rotation) PrependFirst(u, w int) {
	r.Order[u] = append([]int{w}, r.Order[u]...)
}

// Clone returns a deep copy of the rotation system.
func (r *Rotation) Clone() *Rotation {
	c := NewRotation(len(r.Order))
	for u := range r.Order {
		c.Order[u] = append([]int(nil), r.Order[u]...)
	}
	return c
}

// FaceCount returns the number of faces (convenience wrapper).
func (r *Rotation) FaceCount() int { return len(r.Faces()) }
