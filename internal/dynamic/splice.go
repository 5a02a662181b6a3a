package dynamic

import (
	"fmt"
	"slices"
	"sort"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/graph"
)

// A tree-edge removal is absorbed by an Euler-tour splice. Algorithm 2
// checks that f is the Euler tour of the certified spanning tree T, not
// that T is a DFS tree, and the §3.2 cut along any spanning tree of the
// embedding is path-outerplanar. So when the tree edge {p, c} dies, a
// cotree edge {x, y} with x in c's subtree S and y outside it takes its
// place, in the same rotation system:
//
//   - S's closed walk f[cMin..cMax-1] (c's two end copies merged) is
//     rotated to start at x's corner a, and closed by a new copy of x;
//   - p's copies pa = cMin-1 and pb = cMax+1 merge into one corner;
//   - the walk is inserted right after y's corner b, followed by a new
//     copy of y.
//
// The tour keeps its 2n-1 ranks, and only the ranks between the
// smaller of pa and b and the larger of pb and b move. Each corner keeps
// its chords in their angular order (see rotation): a merged corner
// lists the chords of its first part, then those of its second, and the
// corners of x and y split at {x, y}. ComputeIntervals over the moved
// chords gives I(·) and rejects a crossing; the frontier sweep decides
// acceptance, so a wrong splice only costs a re-prove.
type splice struct {
	par, c, x, y       int // the removed edge {par, c} and its replacement {x, y}
	pa, cMin, cMax, pb int
	a, b               int // the ranks of {x, y}: a in [cMin, cMax], b outside
	ai                 int // a as a corner of the closed walk (cMin for cMax)
	bi                 int // b as a corner of the tour without S (pa for pb)
	l                  int // length of the closed walk, cMax - cMin
	lo, hi             int // the ranks the splice renumbers
	w                  int // the new rank of the walk's first copy
	n2                 int // the number of ranks, 2n-1
}

// spliceScratch holds the buffers a planarity state reuses across
// splices.
type spliceScratch struct {
	pos    []int32      // node -> index of its first renumbered copy, -1 outside a splice
	old    []int        // f over the renumbered ranks, before the splice
	nodes  []int        // nodes with a renumbered copy
	chords []graph.Edge // the chords over the new ranks, for ComputeIntervals
}

// planSplice picks the cotree edge that replaces the tree edge {par, c}
// (par = parent(c)): a chord with one end a in c's ranks [cMin, cMax]
// and the other end b outside. It prefers the fewest renumbered ranks,
// then x = c (no re-rooting), then the smallest (a, b); the ranks fix
// the choice, so it does not depend on the order of the chords at a
// rank. ok is false when no chord leaves S: {par, c} is a bridge.
func (p *planarState) planSplice(par, c int) (sp splice, ok bool) {
	cc := p.copies[c]
	cMin, cMax := cc[0], cc[len(cc)-1]
	for r := cMin; r <= cMax; r++ {
		for _, ge := range p.byRank[r] {
			ch, found := p.chordOf(ge)
			if !found {
				continue
			}
			o := ch.A + ch.B - r
			if o >= cMin && o <= cMax {
				continue
			}
			cand := newSplice(p, par, c, r, o)
			if !ok || cand.less(&sp) {
				sp, ok = cand, true
			}
		}
	}
	return sp, ok
}

func newSplice(p *planarState, par, c, a, b int) splice {
	cc := p.copies[c]
	sp := splice{par: par, c: c, x: p.f[a], y: p.f[b], cMin: cc[0], cMax: cc[len(cc)-1], a: a, b: b, n2: p.n2}
	sp.pa, sp.pb, sp.l = sp.cMin-1, sp.cMax+1, sp.cMax-sp.cMin
	sp.ai, sp.bi = a, b
	if a == sp.cMax {
		sp.ai = sp.cMin
	}
	if b == sp.pb {
		sp.bi = sp.pa
	}
	if sp.bi <= sp.pa {
		sp.lo, sp.hi, sp.w = sp.bi, sp.pb, sp.bi+1
	} else {
		sp.lo, sp.hi, sp.w = sp.pa, sp.bi, sp.bi-sp.l-1
	}
	return sp
}

func (sp *splice) renumbered() int { return sp.hi - sp.lo + 1 }

func (sp *splice) less(o *splice) bool {
	if sp.renumbered() != o.renumbered() {
		return sp.renumbered() < o.renumbered()
	}
	if (sp.x == sp.c) != (o.x == o.c) {
		return sp.x == sp.c
	}
	if sp.a != o.a {
		return sp.a < o.a
	}
	return sp.b < o.b
}

// angle orders the chord ends at a corner: clockwise from the path edge
// into the corner, first the chords whose other rank o is below r, then
// those above, each by descending o (see rotation). A merged corner
// lists its first part (cMax's chords, or pa's) before its second
// (cMin's, or pb's).
func (sp *splice) angle(r, o int) int {
	k := 2*sp.n2 - o
	if o < r {
		k = -o
	}
	if (r == sp.cMin && sp.l > 0) || r == sp.pb {
		k += 4 * sp.n2
	}
	return k
}

// dest returns the new rank of the chord end at old rank r whose other
// end is at old rank o.
func (sp *splice) dest(r, o int) int {
	switch {
	case r >= sp.cMin && r <= sp.cMax:
		if sp.l == 0 {
			return sp.w
		}
		q := r
		if r == sp.cMax {
			q = sp.cMin
		}
		if q != sp.ai {
			return sp.w + ((q-sp.ai)%sp.l+sp.l)%sp.l
		}
		if sp.angle(r, o) < sp.angle(sp.a, sp.b) {
			return sp.w + sp.l // x's closing copy
		}
		return sp.w
	case r == sp.pa || r == sp.pb:
		if sp.bi == sp.pa && sp.angle(r, o) < sp.angle(sp.b, sp.a) {
			return sp.pa // y = par: before {x, y}, p's merged corner
		}
		if sp.bi <= sp.pa {
			return sp.pb // after the walk, or its new copy when y = par
		}
		return sp.pa
	case r == sp.b && sp.angle(r, o) > sp.angle(sp.b, sp.a):
		return sp.w + sp.l + 1 // the new copy of y
	case sp.bi < sp.pa && r > sp.bi && r < sp.pa:
		return r + sp.l + 2
	case sp.bi > sp.pb && r > sp.pb && r <= sp.bi:
		return r - sp.l - 2
	}
	return r
}

// isXY reports whether the cotree certificate ec is {x, y}'s.
func (sp *splice) isXY(ec *core.EdgeCert) bool {
	r0, r1 := int(ec.Rank[0]), int(ec.Rank[1])
	return (r0 == sp.a && r1 == sp.b) || (r0 == sp.b && r1 == sp.a)
}

// spliceTree absorbs the removal of the tree edge {par, c}, par =
// parent(c), by an Euler-tour splice (see splice). The renumbered ranks
// are charged to the budget. A splice that dirties more than half of
// the nodes falls back to a re-prove, so that a repair stays local; the
// state is then already spliced, which keeps it a function of the
// certificates and the batch.
func (p *planarState) spliceTree(par, c int, budget *int, dirty map[int]bool) (bool, string) {
	sp, ok := p.planSplice(par, c)
	if !ok {
		return false, "tree-edge splice: no cotree edge reconnects the subtree (a bridge)"
	}
	if *budget -= sp.renumbered(); *budget < 0 {
		return false, fmt.Sprintf("tree-edge splice over ranks [%d,%d] exceeds repair threshold", sp.lo, sp.hi)
	}
	if p.sc == nil {
		p.sc = &spliceScratch{pos: make([]int32, len(p.parent))}
		for v := range p.sc.pos {
			p.sc.pos[v] = -1
		}
	}
	sc := p.sc

	// The chords over the new ranks, and I(·).
	sc.chords = sc.chords[:0]
	p.movedChords(&sp, func(_ int, _ *core.EdgeCert, r0, r1 int) {
		sc.chords = append(sc.chords, graph.Edge{U: min(r0, r1), V: max(r0, r1)})
	})
	iv, err := core.ComputeIntervals(p.n2, sc.chords)
	if err != nil {
		return false, "tree-edge splice: " + err.Error()
	}

	p.spliceTour(&sp)
	// Drop {par, c}'s certificate; {x, y}'s becomes a tree certificate
	// where it is stored (below).
	h, hv, k, _ := p.edgeCertOf(graph.NewEdge(par, c))
	h.Edges = append(h.Edges[:k], h.Edges[k+1:]...)
	dirty[hv] = true
	for r := sp.lo; r <= sp.hi; r++ {
		p.byRank[r] = p.byRank[r][:0]
	}
	p.movedChords(&sp, func(v int, ec *core.EdgeCert, r0, r1 int) {
		want := *ec
		for j, r := range [2]int{r0, r1} {
			want.Rank[j], want.Iv[j] = int32(r), core.Narrow(iv[r])
			if r >= sp.lo && r <= sp.hi {
				p.byRank[r] = append(p.byRank[r], graph.NewEdge(p.f[r0], p.f[r1]))
			}
		}
		if want != *ec {
			*ec = want
			dirty[v] = true
		}
	})

	// Tree fields of the nodes with a renumbered copy: the parent is f
	// at the rank before the first copy, Dist one more than the
	// parent's, and Size half the span of the copies. Ranks ascend, so a
	// parent is settled before its children.
	for r := sp.lo; r <= sp.hi; r++ {
		v := p.f[r]
		cp := p.copies[v]
		t := &p.objs[v].Tree
		want := *t
		want.Size = uint64(cp[len(cp)-1]-cp[0]+2) / 2
		if cp[0] == r && r > 1 {
			p.parent[v] = p.f[r-1]
			want.Parent = p.g.IDOf(p.parent[v])
			want.Dist = p.objs[p.parent[v]].Tree.Dist + 1
		}
		if want != *t {
			*t = want
			dirty[v] = true
		}
	}
	copy(p.iv[sp.lo:sp.hi+1], iv[sp.lo:sp.hi+1])
	for _, v := range sc.nodes {
		if p.parent[v] != v {
			if !p.setTreeCert(v, dirty) {
				return false, "tree-edge splice: no certificate for a tree edge"
			}
		}
	}
	// The tree edges that enter the renumbered ranks from outside, then
	// every rank outside them whose interval changed.
	for _, r := range [2]int{sp.lo, sp.hi + 1} {
		if r > 1 && r <= p.n2 {
			u, v := p.f[r-1], p.f[r]
			if p.parent[u] == v {
				v = u
			}
			if !p.setTreeCert(v, dirty) {
				return false, "tree-edge splice: no certificate for a tree edge"
			}
		}
	}
	for r := 1; r <= p.n2; r++ {
		if (r < sp.lo || r > sp.hi) && iv[r] != p.iv[r] {
			if ok, reason := p.setRankInterval(r, iv[r], dirty); !ok {
				return false, reason
			}
		}
	}
	if n := len(p.parent); 2*len(dirty) > n {
		return false, fmt.Sprintf("tree-edge splice dirties %d of %d nodes", len(dirty), n)
	}
	return true, ""
}

// movedChords calls fn for every cotree certificate but {x, y}'s, by
// holder and in certificate order, with the new ranks of its two ends.
func (p *planarState) movedChords(sp *splice, fn func(v int, ec *core.EdgeCert, r0, r1 int)) {
	for v := range p.objs {
		es := p.objs[v].Edges
		for k := range es {
			if ec := &es[k]; !ec.IsTree && !sp.isXY(ec) {
				r0, r1 := int(ec.Rank[0]), int(ec.Rank[1])
				fn(v, ec, sp.dest(r0, r1), sp.dest(r1, r0))
			}
		}
	}
}

// spliceTour rewrites f and the copies over the renumbered ranks, and
// lists the nodes that have a copy there in sc.nodes.
func (p *planarState) spliceTour(sp *splice) {
	sc := p.sc
	sc.old = append(sc.old[:0], p.f[sp.lo:sp.hi+1]...)
	sc.nodes = sc.nodes[:0]
	for i, v := range sc.old {
		if sc.pos[v] < 0 {
			sc.pos[v] = int32(sort.SearchInts(p.copies[v], sp.lo+i))
			sc.nodes = append(sc.nodes, v)
		}
	}
	old := func(r int) int { return sc.old[r-sp.lo] }
	nf := p.f[sp.lo : sp.hi+1]
	at := 0
	put := func(v int) { nf[at] = v; at++ }
	walk := func() {
		for k := 0; k < sp.l; k++ {
			put(old(sp.cMin + (sp.ai-sp.cMin+k)%sp.l))
		}
		put(sp.x)
		put(sp.y)
	}
	if sp.bi <= sp.pa {
		put(sp.y)
		walk()
		for r := sp.bi + 1; r <= sp.pa; r++ {
			put(old(r))
		}
	} else {
		put(sp.par)
		for r := sp.pb + 1; r <= sp.bi; r++ {
			put(old(r))
		}
		walk()
	}
	// c and par lose a copy and x and y gain one, unless they coincide.
	// Which slot moves does not matter: the loop below rewrites them all.
	for _, mv := range [2][2]int{{sp.c, sp.x}, {sp.par, sp.y}} {
		if from, to := mv[0], mv[1]; from != to {
			p.copies[from] = slices.Delete(p.copies[from], int(sc.pos[from]), int(sc.pos[from])+1)
			p.copies[to] = slices.Insert(p.copies[to], int(sc.pos[to]), 0)
		}
	}
	for i, v := range nf {
		p.copies[v][sc.pos[v]] = sp.lo + i
		sc.pos[v]++
	}
	for _, v := range sc.nodes {
		sc.pos[v] = -1
	}
}

// setTreeCert rewrites the certificate of the tree edge from parent(w)
// to w: its orientation, w's first and last copies with the parent's
// copies around them, and the intervals of those ranks. It reports
// whether the edge has a certificate.
func (p *planarState) setTreeCert(w int, dirty map[int]bool) bool {
	h, hv, k, ok := p.edgeCertOf(graph.NewEdge(w, p.parent[w]))
	if !ok {
		return false
	}
	cp := p.copies[w]
	want := core.EdgeCert{IsTree: true, U: p.g.IDOf(p.parent[w]), V: p.g.IDOf(w)}
	for j, r := range [4]int{cp[0] - 1, cp[0], cp[len(cp)-1], cp[len(cp)-1] + 1} {
		want.Rank[j], want.Iv[j] = int32(r), core.Narrow(p.iv[r])
	}
	if h.Edges[k] != want {
		h.Edges[k] = want
		dirty[hv] = true
	}
	return true
}
