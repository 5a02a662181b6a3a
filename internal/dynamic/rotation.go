package dynamic

import (
	"math"
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
// parent, where the DFS starts scanning it, and the order depends on
// the ranks alone. For a state the prover built, whose tree is the DFS
// tree of the transform, the transform of the rotation reproduces f;
// after a splice the tree is no DFS tree, and the transform's DFS from
// node 0 yields another f of the same embedding.
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
// removed edges, with the chord of each added edge between two existing
// nodes inserted at a face its ends share (see insertChords), and with
// each new node hung at the end of its neighbor's list. It decodes the
// repair state first when the session has none, and records the read,
// which follows the chord insertion, as a child of pv. It returns nil,
// so that the prover runs the LR test, when nb is nil, when the session
// holds no certified planarity assignment, when the batch adds a node
// with two edges, and when an added edge between existing nodes shares
// no face with the kept embedding: the graph then needs another
// embedding, or has none.
//
// A repair of nb that fell back before its frontier sweep may have
// patched the state: removed chords of removed edges, spliced the tour
// around a removed tree edge, or attached chords of added edges, which
// insertChords skips. Each keeps the same embedding minus the removed
// edges plus the attached ones, and the result is still a function of
// the certificates, the batch and the re-add hints (see remember),
// which a repair records before each removal. (A repair whose frontier
// rejected drops the state.) The inserted chords stay in the state,
// which the re-prove replaces.
func (s *Session) keptRotation(nb *netBatch, pv *obs.Span) *embedding.Rotation {
	if _, planar := s.active.(core.PlanarScheme); nb == nil || !planar || !s.certified {
		return nil
	}
	n := s.g.N()
	old := n - len(nb.addedNodes) // new nodes have the last indices
	for v := old; v < n; v++ {
		if s.g.Degree(v) > 1 {
			return nil
		}
	}
	var chords []graph.Edge
	for _, pr := range nb.addedEdges {
		switch a, b := s.indices(pr); {
		case a < old && b < old:
			chords = append(chords, graph.NewEdge(a, b))
		case a >= old && b >= old:
			return nil
		}
	}
	p, ok := s.state.(*planarState)
	if !ok {
		c := pv.Child(obs.SpanRepairState)
		var err error
		p, err = s.decodePlanarState()
		c.End()
		if err != nil {
			return nil
		}
	}
	if !p.insertChords(chords) {
		return nil
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
		if leaf >= old {
			rot.Order[leaf] = []int{u}
			rot.Order[u] = append(rot.Order[u], leaf)
		}
	}
	return rot
}

// insertChords attaches the chord of each edge in es, in order, at the
// face chordFace picks, and skips an edge whose certificate the state
// already holds. The repair threshold and the certificate cap do not
// apply: a re-prove builds its state afresh from the prover's objects.
// When an edge finds no face, insertChords detaches the chords it
// attached, which leaves the state as it was, and reports false.
func (p *planarState) insertChords(es []graph.Edge) bool {
	dirty := make(map[int]bool) // nothing is re-encoded
	unlimited := math.MaxInt
	var attached []graph.Edge
	for _, e := range es {
		if _, _, _, held := p.edgeCertOf(e); held {
			continue
		}
		ru, rv, ok := p.chordFace(e)
		if !ok {
			for _, e := range slices.Backward(attached) {
				c, _ := p.chordOf(e)
				p.detachChord(e, c, &unlimited, dirty)
			}
			return false
		}
		if ok, _ := p.attachChord(e, ru, rv, &unlimited, dirty); !ok {
			return false // a state its certificates do not describe
		}
		attached = append(attached, e)
	}
	return true
}

// indices returns the node indices of an edge's endpoints.
func (s *Session) indices(pr [2]graph.ID) (int, int) {
	a, _ := s.g.IndexOf(pr[0])
	b, _ := s.g.IndexOf(pr[1])
	return a, b
}
