package dynamic

import (
	"fmt"
	"slices"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// A batch whose new nodes are each a leaf of an existing node grows n in
// place. The new node changes n, which every certificate carries, but
// little else: the spanning tree gains one child, whose Size climbs its
// anchor's root path, and, under planarity, the Euler tour gains two
// ranks, the leaf and a new copy of its anchor v, right after v's last
// corner r. Every later rank moves up by 2, and so does every I(·) end
// above r, the sentinel's included; the chords anchored at r stay at r.
// The two new ranks lie between r and the old r+1, so their innermost
// cover is the narrowest chord anchored at r that ends above it, or
// else I(r). The repair then re-encodes all n certificates, and the
// session sweeps them all.

// leaf is a node a batch adds with one edge, to the existing node v.
type leaf struct{ l, v int }

// leavesOf lists, in index order, the nodes nb adds, each with the
// existing node its one edge goes to. Otherwise reason names the first
// new node that is no such leaf: an isolated node, a node with more
// edges, or one whose edge goes to another new node.
func (s *Session) leavesOf(nb *netBatch) ([]leaf, string) {
	n := s.g.N()
	old := n - len(nb.addedNodes) // new nodes have the last indices
	leaves := make([]leaf, 0, n-old)
	for l := old; l < n; l++ {
		switch nbrs := s.g.Neighbors(l); {
		case len(nbrs) == 0:
			return nil, fmt.Sprintf("node addition: node %d is isolated", s.g.IDOf(l))
		case len(nbrs) > 1:
			return nil, fmt.Sprintf("node addition: node %d has %d edges, not one", s.g.IDOf(l), len(nbrs))
		case nbrs[0] >= old:
			return nil, fmt.Sprintf("node addition: edge {%d,%d} joins two new nodes", s.g.IDOf(l), s.g.IDOf(nbrs[0]))
		default:
			leaves = append(leaves, leaf{l: l, v: nbrs[0]})
		}
	}
	return leaves, ""
}

// attachLeaves inserts the leaves, given in index order, into the tour
// after their anchors' last corners (see leaf). Leaves at one corner
// follow each other in index order, each after the copy of the anchor
// that the one before it added.
func (p *planarState) attachLeaves(leaves []leaf) {
	k := len(leaves)
	if k == 0 {
		return
	}
	rank := make([]int, k) // leaves[i]'s corner, then its rank
	for i, lf := range leaves {
		cp := p.copies[lf.v]
		rank[i] = cp[len(cp)-1]
	}
	byCorner := make([]int, k) // leaf positions, by corner, stably
	for i := range byCorner {
		byCorner[i] = i
	}
	slices.SortStableFunc(byCorner, func(i, j int) int { return rank[i] - rank[j] })
	corners := make([]int, k)
	for i, li := range byCorner {
		corners[i] = rank[li]
	}
	// up returns the new rank of rank x: 2 more for each leaf at a
	// corner below x and, when x is the left end of a path edge, for
	// each leaf at x too, since that edge now leaves x's last new copy.
	up := func(x int, left bool) int {
		y := x
		if left {
			y++
		}
		i, _ := slices.BinarySearch(corners, y)
		return x + 2*i
	}
	upIv := func(iv core.Interval) core.Interval { return core.Interval{A: up(iv.A, false), B: up(iv.B, false)} }

	// Every certificate: n and the ranks it holds. A tree-edge
	// certificate's PA and CMax are left ends of path edges.
	for v := range p.objs {
		c := &p.objs[v]
		c.Tree.N += uint64(k)
		for e := range c.Edges {
			ec := &c.Edges[e]
			for i := range ec.Ranks() {
				ec.Rank[i] = int32(up(int(ec.Rank[i]), ec.IsTree && i%2 == 0))
			}
		}
	}
	for _, cp := range p.copies {
		for i, x := range cp {
			cp[i] = up(x, false)
		}
	}

	// f, I(·) and byRank, moved from the top down so that no rank is
	// overwritten before it is read; the leaves at a corner x go right
	// after x's new rank y.
	n2 := p.n2
	p.n2 += 2 * k
	p.f = append(p.f, make([]int, 2*k)...)
	p.iv = append(p.iv, make([]core.Interval, 2*k)...)
	p.byRank = append(p.byRank, make([][]graph.Edge, 2*k)...)
	j := k // the leaves at corners up to x
	for x := n2; x >= 1; x-- {
		hi := j
		for j > 0 && corners[j-1] == x {
			j--
		}
		y := x + 2*j
		iv := upIv(p.iv[x])
		if j < hi {
			// I(x), or the narrowest chord anchored at x that ends above
			// it; the chords' certificates hold the new ranks.
			in := iv
			for _, ge := range p.byRank[x] {
				if c, ok := p.chordOf(ge); ok && c.A == y && (in == iv || c.B < in.B) {
					in = c
				}
			}
			for i := j; i < hi; i++ {
				r := y + 2*(i-j) + 1
				rank[byCorner[i]] = r
				p.f[r], p.f[r+1] = leaves[byCorner[i]].l, leaves[byCorner[i]].v
				p.iv[r], p.iv[r+1] = in, in
				p.byRank[r], p.byRank[r+1] = nil, nil
			}
		}
		p.f[y], p.iv[y], p.byRank[y] = p.f[x], iv, p.byRank[x]
	}
	// Each rank's interval, into the certificates: a left end that moved
	// to a new copy of its anchor takes that copy's.
	for v := range p.objs {
		for e := range p.objs[v].Edges {
			ec := &p.objs[v].Edges[e]
			for i := range ec.Ranks() {
				ec.Iv[i] = core.Narrow(p.iv[ec.Rank[i]])
			}
		}
	}

	// The leaves themselves, in index order: the new copy of v, the
	// leaf's certificate holding the tree edge {v, l}, and Size up v's
	// root path.
	for i, lf := range leaves {
		r := rank[i]
		p.copies[lf.v] = append(p.copies[lf.v], r+1)
		p.copies = append(p.copies, []int{r})
		p.parent = append(p.parent, lf.v)
		tv := p.objs[lf.v].Tree
		ec := core.EdgeCert{IsTree: true, U: tv.SelfID, V: p.g.IDOf(lf.l)}
		for s, x := range [4]int{r - 1, r, r, r + 1} {
			ec.Rank[s], ec.Iv[s] = int32(x), core.Narrow(p.iv[x])
		}
		p.objs = append(p.objs, core.PlanarCert{
			Tree:  pls.TreeCert{SelfID: ec.V, RootID: tv.RootID, N: tv.N, Dist: tv.Dist + 1, Parent: tv.SelfID, Size: 1},
			Edges: []core.EdgeCert{ec},
		})
		for u := lf.v; ; u = p.parent[u] {
			p.objs[u].Tree.Size++
			if p.parent[u] == u {
				break
			}
		}
		if p.sc != nil {
			p.sc.pos = append(p.sc.pos, -1)
		}
	}
}

// attachLeaves hangs the leaves, given in index order, under their
// anchors: n grows in every certificate and Size along each anchor's
// root path. A leaf takes no witness role.
func (t *treeRepair) attachLeaves(leaves []leaf) {
	for _, c := range t.tree {
		c.N += uint64(len(leaves))
	}
	for _, lf := range leaves {
		tv := t.tree[lf.v]
		tc := pls.TreeCert{SelfID: t.g.IDOf(lf.l), RootID: tv.RootID, N: tv.N, Dist: tv.Dist + 1, Parent: tv.SelfID, Size: 1}
		var obj interface{ Encode(*bits.Writer) error } = &tc
		tree := &tc
		if o, ok := t.objs[lf.v].(*core.NonPlanarCert); ok {
			c := &core.NonPlanarCert{Tree: tc, K5: o.K5, BranchIDs: o.BranchIDs}
			obj, tree = c, &c.Tree
		}
		t.parent = append(t.parent, lf.v)
		t.tree = append(t.tree, tree)
		t.objs = append(t.objs, obj)
		for u := lf.v; ; u = t.parent[u] {
			t.tree[u].Size++
			if t.parent[u] == u {
				break
			}
		}
	}
}
