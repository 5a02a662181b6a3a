package dynamic

import (
	"slices"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// rotation reads off the state the rotation system that the planarity
// assignment certifies: the §3.2 cut read backwards. At rank x the
// transform's DFS sits at node f(x) between the path edges {x-1, x} and
// {x, x+1}, and the chords anchored at x leave f(x) between them. In a
// path-outerplanar drawing those chords nest. So clockwise from
// {x-1, x} they come in a fixed order: first the chords whose other rank
// is below x, then those above it, each group by descending other rank.
// The walk over ranks 1..2n-1 therefore lists, at f(x), the chords
// anchored at x and then f(x+1). That is the child entered from x, or
// the parent after f(x)'s last copy. Each node's list starts after its
// parent, where the DFS starts scanning it, so the transform of the
// rotation reproduces f, and the order depends on the ranks alone.
//
// The chord ends are counting-sorted by anchor rank, in descending order
// of their other rank, and the rotation is carved out of one slab, so
// the read is a few O(n + m) passes with no comparison sort.
func (p *planarState) rotation() *embedding.Rotation {
	n, n2 := len(p.parent), p.n2
	start := make([]int32, n2+2) // start[x]: the first chord end anchored at x
	for v := range p.objs {
		es := p.objs[v].Edges
		for k := range es {
			if !es[k].IsTree {
				start[es[k].Rank[0]+1]++
				start[es[k].Rank[1]+1]++
			}
		}
	}
	for x := 1; x < len(start); x++ {
		start[x] += start[x-1]
	}
	// The other ranks of the chord ends, by anchor: first in certificate
	// order (anchored), then by descending other rank (others). The end
	// (x, y) sits in the run of y as x, so walking the runs of
	// y = 2n-1 .. 1 visits the ends anchored at each x by descending y.
	ends := int(start[n2+1])
	slab := make([]int32, 2*ends)
	anchored, others := slab[:ends], slab[ends:]
	next := make([]int32, n2+1)
	copy(next, start)
	for v := range p.objs {
		es := p.objs[v].Edges
		for k := range es {
			if !es[k].IsTree {
				a, b := es[k].Rank[0], es[k].Rank[1]
				anchored[next[a]], anchored[next[b]] = b, a
				next[a]++
				next[b]++
			}
		}
	}
	copy(next, start)
	for y := n2; y >= 1; y-- {
		for _, x := range anchored[start[y]:start[y+1]] {
			others[next[x]] = int32(y)
			next[x]++
		}
	}

	// Every rank but the last adds the path edge to the next rank.
	off := make([]int32, n+1)
	for x := 1; x <= n2; x++ {
		off[p.f[x]+1] += start[x+1] - start[x]
		if x < n2 {
			off[p.f[x]+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbrs := make([]int, off[n])
	for x := 1; x <= n2; x++ {
		v := p.f[x]
		run := others[start[x]:start[x+1]]
		below := 0 // run[below:] are the chords whose other rank is below x
		for below < len(run) && int(run[below]) > x {
			below++
		}
		at := off[v]
		for _, y := range run[below:] {
			nbrs[at] = p.f[y]
			at++
		}
		for _, y := range run[:below] {
			nbrs[at] = p.f[y]
			at++
		}
		if x < n2 {
			nbrs[at] = p.f[x+1]
			at++
		}
		off[v] = at
	}
	// off[v] now ends v's list, which starts where v-1's ends.
	rot := &embedding.Rotation{Order: make([][]int, n)}
	lo := int32(0)
	for v := range rot.Order {
		rot.Order[v] = nbrs[lo:off[v]:off[v]]
		lo = off[v]
	}
	return rot
}

// keptRotation returns the rotation system a planarity re-prove of nb
// starts from: the one the live certificates encode, without the
// removed edges, and with each new node hung at the end of its
// neighbor's list. It decodes the repair state first when the session
// has none, and records the read as a child of pv. It returns nil, so
// that the prover runs the LR test, when nb is nil, when the session
// holds no certified planarity assignment, and when the batch adds an
// edge other than a new node's only edge: such an edge needs a face
// that the kept embedding may not have.
//
// A failed repair of nb may have patched the state, but only by
// removing chords of removed edges, so the result is still a function
// of the certificates and the batch.
func (s *Session) keptRotation(nb *netBatch, pv *obs.Span) *embedding.Rotation {
	if _, planar := s.active.(core.PlanarScheme); nb == nil || !planar || !s.certified {
		return nil
	}
	n := s.g.N()
	old := n - len(nb.addedNodes) // new nodes have the last indices
	for _, pr := range nb.addedEdges {
		if a, b := s.indices(pr); (a < old) == (b < old) {
			return nil
		}
	}
	p, ok := s.state.(*planarState)
	if !ok {
		c := pv.Child(obs.SpanRepairState)
		var err error
		p, err = s.decodePlanarState(old)
		c.End()
		if err != nil {
			return nil
		}
	}
	c := pv.Child(obs.SpanRotation)
	defer c.End()
	rot := p.rotation()
	for _, pr := range nb.removedEdges {
		a, b := s.indices(pr)
		rot.Order[a] = slices.DeleteFunc(rot.Order[a], func(w int) bool { return w == b })
		rot.Order[b] = slices.DeleteFunc(rot.Order[b], func(w int) bool { return w == a })
	}
	rot.Order = append(rot.Order, make([][]int, n-old)...)
	for _, pr := range nb.addedEdges {
		u, leaf := s.indices(pr)
		if u >= old {
			u, leaf = leaf, u
		}
		if len(rot.Order[leaf]) > 0 {
			return nil // a new node with two edges
		}
		rot.Order[leaf] = []int{u}
		rot.Order[u] = append(rot.Order[u], leaf)
	}
	return rot
}

// indices returns the node indices of an edge's endpoints.
func (s *Session) indices(pr [2]graph.ID) (int, int) {
	a, _ := s.g.IndexOf(pr[0])
	b, _ := s.g.IndexOf(pr[1])
	return a, b
}
