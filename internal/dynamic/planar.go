package dynamic

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/graph"
)

// planarState is the structured Theorem 1 certificate assignment kept
// alongside the planarity scheme: the DFS-mapping (ranks, copies, tree
// parents), the live interval table of the spanning-path proof, the
// cotree edges whose chords end at each rank, and the decoded per-node
// certificates (which carry each chord's ranks). All of it is a function
// of the certificates (see newPlanarState).
//
// Localized repair exploits the nesting structure of the chord family
// over ranks 1..2n-1 (Section 3.1 of the paper): the chords of a
// path-outerplanar witness form a laminar family, and I(x) is the
// innermost chord strictly covering rank x.
//
//   - Removing a cotree edge removes one chord c = [a, b]. Exactly the
//     ranks x with I(x) = c are re-covered, by the innermost chord J
//     strictly containing c (c's parent in the laminar family); J is
//     computable from I(a), I(b) and the chords anchored at a or b —
//     all local to the chord's endpoints.
//   - Adding an edge {u, v} attaches a chord between a copy a of u and
//     a copy b of v with I(a) = I(b) =: P. That equality implies the
//     new chord crosses nothing (any crossing chord would strictly
//     cover exactly one endpoint, contradicting the shared innermost
//     cover), and exactly the ranks x in (a, b) with I(x) = P are
//     re-covered by the new chord. If no copy pair satisfies it, the
//     chord cannot be added under the current embedding and the
//     session falls back to a re-prove from the LR test. A chord over
//     the repair threshold falls back too, and its re-prove inserts the
//     chord the same way (see keptRotation). A re-added edge goes back
//     to the corners its removal left, when they still share a face
//     (see remember); other edges take the narrowest copy pair.
//
// In both cases the ranks to patch are those on the face directly
// under the chord, and laminarity lets faceUnder walk them from a to b,
// jumping over each child chord, in O(face + chords anchored on it)
// whatever the chord's width; its rank buffer is kept in the state.
// Every patched rank interval is propagated into the edge certificates
// that claim it: the tree-edge certificates of the two path edges at
// that rank plus the chords attached there — so the verifier's
// rank -> interval claims stay globally consistent. The repair budget
// is charged with the ranks the walk visits and the certificates the
// patch can dirty, not with the chord's width.
//
// Removing a spanning-tree edge splices the Euler tour (see splice): a
// cotree edge reconnects the cut-off subtree, whose segment of ranks
// moves next to the new parent, and only the ranks in between are
// renumbered. A new leaf joins the tour at its anchor's last corner
// (see attachLeaves); it changes n, so every certificate is re-encoded.
// Other node additions are out of repair scope. Their re-prove still
// starts from the embedding the state encodes (see rotation and
// keptRotation), with new leaves hung at their neighbors and new edges
// between existing nodes inserted as chords, and runs the LR test only
// when such an edge has no face.
type planarState struct {
	g      *graph.Graph
	n2     int
	f      []int                 // rank -> node index (1..n2)
	copies [][]int               // node index -> ranks, ascending
	parent []int                 // spanning-tree parent by index
	iv     []core.Interval       // rank -> I(rank)
	byRank [][]graph.Edge        // rank -> cotree edges whose chord ends there
	objs   []core.PlanarCert     // node index -> certificate
	face   []int                 // the ranks of the last faceUnder walk
	hints  map[graph.Edge][2]int // the session's re-add hints (see remember)
	sc     *spliceScratch        // buffers of spliceTree, nil until its first run
}

// newPlanarState reads the repair state off an accepted planarity
// assignment (Section 3.3), given as certificate objects by node index.
// They may cover only the first nodes of g: a re-prove reads the state
// of the graph before a batch that added nodes.
// The tree-edge certificate of parent p and child c maps p to ranks PA
// and PB and c to CMin and CMax. Every rank is one of these, so the
// tree-edge certificates fix f, the parents and I(·), and the copies of
// a node are the ranks f maps to it. Each cotree certificate names the
// two ranks its chord joins. Two passes over the objects fill a fixed
// handful of slabs; each byRank run is capped so a later append
// reallocates that run alone. The state takes objs over.
func newPlanarState(g *graph.Graph, objs []core.PlanarCert) (*planarState, error) {
	n := len(objs)
	if n == 0 || n > g.N() {
		return nil, fmt.Errorf("%d certificates for %d nodes", n, g.N())
	}
	n2 := 2*n - 1
	p := &planarState{
		g:      g,
		n2:     n2,
		f:      make([]int, n2+1),
		parent: make([]int, n),
		iv:     make([]core.Interval, n2+1),
		objs:   objs,
	}
	start := make([]int32, n2+2) // chord ends per rank, then run starts
	for v := range objs {
		c := &objs[v]
		for k := range c.Edges {
			ec := &c.Edges[k]
			if !ec.IsTree { // ranks in [1, n2]: the verifier accepted them
				for i, r := range ec.Rank[:2] {
					p.iv[r] = ec.Iv[i].Wide()
					start[r+1]++
				}
				continue
			}
			w, err := otherEnd(g, v, ec)
			if err != nil {
				return nil, err
			}
			par, child := v, w // ec.U is the parent
			if ec.U != c.Tree.SelfID {
				par, child = w, v
			}
			p.parent[child] = par
			for i, u := range [4]int{par, child, child, par} {
				p.f[ec.Rank[i]] = u
				p.iv[ec.Rank[i]] = ec.Iv[i].Wide()
			}
		}
	}
	if n == 1 {
		p.iv[1] = core.Sentinel(1) // f[1] = 0, and no certificate claims rank 1
	}

	// Copies: a counting sort of the ranks by node, ascending per node.
	off := make([]int32, n+1)
	for r := 1; r <= n2; r++ {
		off[p.f[r]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	copySlab := make([]int, n2)
	p.copies = make([][]int, n)
	for v := range p.copies {
		p.copies[v] = copySlab[off[v]:off[v]:off[v+1]]
	}
	for r := 1; r <= n2; r++ {
		p.copies[p.f[r]] = append(p.copies[p.f[r]], r)
	}
	p.parent[p.f[1]] = p.f[1]

	// byRank: each cotree edge at both of its ranks.
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	slab := make([]graph.Edge, start[len(start)-1])
	p.byRank = make([][]graph.Edge, n2+1)
	for r := range p.byRank {
		p.byRank[r] = slab[start[r]:start[r]:start[r+1]]
	}
	for v := range objs {
		c := &objs[v]
		for k := range c.Edges {
			// A chord's ranks are copies of its endpoints U and V.
			if ec := &c.Edges[k]; !ec.IsTree {
				e := graph.NewEdge(p.f[ec.Rank[0]], p.f[ec.Rank[1]])
				p.byRank[ec.Rank[0]] = append(p.byRank[ec.Rank[0]], e)
				p.byRank[ec.Rank[1]] = append(p.byRank[ec.Rank[1]], e)
			}
		}
	}
	return p, nil
}

// otherEnd returns the index of the endpoint of the tree edge ec other
// than its holder v. That is a neighbor of v, found by a scan of v's
// adjacency, which is cheaper than the identifier map, unless the
// pending batch removed the edge.
func otherEnd(g *graph.Graph, v int, ec *core.EdgeCert) (int, error) {
	id := ec.Other(g.IDOf(v))
	for _, w := range g.Neighbors(v) {
		if g.IDOf(w) == id {
			return w, nil
		}
	}
	if w, ok := g.IndexOf(id); ok {
		return w, nil
	}
	return 0, fmt.Errorf("node %d certifies an edge to unknown node %d", g.IDOf(v), id)
}

// chordOf returns the chord [lo, hi] of a cotree edge, from the ranks
// in its edge certificate.
func (p *planarState) chordOf(ge graph.Edge) (core.Interval, bool) {
	h, _, k, ok := p.edgeCertOf(ge)
	if !ok || h.Edges[k].IsTree {
		return core.Interval{}, false
	}
	a, b := int(h.Edges[k].Rank[0]), int(h.Edges[k].Rank[1])
	return core.Interval{A: min(a, b), B: max(a, b)}, true
}

// repair implements repairState for the planarity scheme.
func (p *planarState) repair(nb *netBatch, budget int) ([]int, []bits.Certificate, bool, string) {
	dirty := make(map[int]bool)
	for _, pr := range nb.removedEdges {
		if ok, reason := p.removeChord(pr, &budget, dirty); !ok {
			return nil, nil, false, reason
		}
	}
	for _, pr := range nb.addedEdges {
		if ok, reason := p.addChord(pr, &budget, dirty); !ok {
			return nil, nil, false, reason
		}
	}
	p.attachLeaves(nb.leaves)
	changed := changedNodes(len(p.objs), len(nb.leaves) > 0, dirty)
	return reencode(changed, func(v int, w *bits.Writer) error { return p.objs[v].Encode(w) })
}

func (p *planarState) idxPair(pr [2]graph.ID) (graph.Edge, bool) {
	ia, ok1 := p.g.IndexOf(pr[0])
	ib, ok2 := p.g.IndexOf(pr[1])
	if !ok1 || !ok2 {
		return graph.Edge{}, false
	}
	return graph.NewEdge(ia, ib), true
}

func (p *planarState) removeChord(pr [2]graph.ID, budget *int, dirty map[int]bool) (bool, string) {
	e, ok := p.idxPair(pr)
	if !ok {
		return false, "unknown endpoint"
	}
	switch {
	case p.parent[e.U] == e.V:
		p.rememberTree(e, e.V, e.U)
		return p.spliceTree(e.V, e.U, budget, dirty)
	case p.parent[e.V] == e.U:
		p.rememberTree(e, e.U, e.V)
		return p.spliceTree(e.U, e.V, budget, dirty)
	}
	chord, ok := p.chordOf(e)
	if !ok {
		return false, "no chord recorded for removed edge"
	}
	ru, rv := chord.A, chord.B
	if p.f[ru] != e.U {
		ru, rv = rv, ru
	}
	p.remember(e, p.nextAt(ru, rv), p.nextAt(rv, ru))
	return p.detachChord(e, chord, budget, dirty)
}

// detachChord removes the chord of the cotree edge e, which spans
// chord: its byRank entries and edge certificate, and then, by the
// innermost chord strictly containing it, the cover of the ranks on the
// face under it, whose innermost cover it was. The face's charge comes
// off the budget first; over it, nothing changes. It undoes attachChord
// exactly.
func (p *planarState) detachChord(e graph.Edge, chord core.Interval, budget *int, dirty map[int]bool) (bool, string) {
	a, b := chord.A, chord.B
	if *budget -= p.faceUnder(a, b); *budget < 0 {
		return false, fmt.Sprintf("chord [%d,%d] exceeds repair threshold", a, b)
	}
	p.byRank[a] = dropEdge(p.byRank[a], e)
	p.byRank[b] = dropEdge(p.byRank[b], e)
	h, hv, k, _ := p.edgeCertOf(e) // the caller found it
	h.Edges = append(h.Edges[:k], h.Edges[k+1:]...)
	dirty[hv] = true
	j := p.coverOf(a, b)
	for _, x := range p.face {
		if ok, reason := p.setRankInterval(x, j, dirty); !ok {
			return false, reason
		}
	}
	return true, ""
}

func (p *planarState) addChord(pr [2]graph.ID, budget *int, dirty map[int]bool) (bool, string) {
	e, ok := p.idxPair(pr)
	switch {
	case !ok:
		return false, "unknown endpoint"
	case e.V >= len(p.parent): // a leaf's edge, which attachLeaves hangs
		return true, ""
	}
	ru, rv, ok := p.chordFace(e)
	if !ok {
		return false, "no non-crossing chord attachment under the current embedding"
	}
	if min(len(p.objs[e.U].Edges), len(p.objs[e.V].Edges)) >= core.MaxEdgeCerts {
		return false, "both endpoints at the edge-certificate cap"
	}
	return p.attachChord(e, ru, rv, budget, dirty)
}

// chordFace picks where a chord of the edge e can attach: ranks ru of
// e.U and rv of e.V whose face chains share a face containing the span
// between them (see the type comment). It prefers the corners e left
// when it was removed (see remember), and otherwise takes the narrowest
// pair. It reports false when no copy pair shares a face.
func (p *planarState) chordFace(e graph.Edge) (ru, rv int, ok bool) {
	if h, held := p.hints[e]; held {
		ru, ok1 := p.cornerBefore(e.U, h[0])
		rv, ok2 := p.cornerBefore(e.V, h[1])
		if a, b := min(ru, rv), max(ru, rv); ok1 && ok2 && b-a >= 2 {
			if _, found := p.commonFace(a, b); found {
				return ru, rv, true
			}
		}
	}
	bestA, bestB := -1, -1
	for _, cu := range p.copies[e.U] {
		for _, cv := range p.copies[e.V] {
			a, b := min(cu, cv), max(cu, cv)
			if b-a < 2 {
				continue
			}
			if _, found := p.commonFace(a, b); !found {
				continue
			}
			if bestA == -1 || b-a < bestB-bestA || (b-a == bestB-bestA && a < bestA) {
				bestA, bestB = a, b
				ru, rv = cu, cv
			}
		}
	}
	return ru, rv, bestA != -1
}

// attachChord adds the chord of e between ranks ru and rv that
// chordFace found: its edge certificate, held by the endpoint storing
// fewer, its byRank entries, and I(x) = [ru, rv] for the ranks on the
// face under it. The face's charge comes off the budget first; over
// it, nothing changes.
func (p *planarState) attachChord(e graph.Edge, ru, rv int, budget *int, dirty map[int]bool) (bool, string) {
	chordIv := core.Interval{A: min(ru, rv), B: max(ru, rv)}
	if *budget -= p.faceUnder(chordIv.A, chordIv.B); *budget < 0 {
		return false, fmt.Sprintf("chord [%d,%d] exceeds repair threshold", chordIv.A, chordIv.B)
	}
	hv := e.U
	if len(p.objs[e.V].Edges) < len(p.objs[e.U].Edges) {
		hv = e.V
	}
	ec := core.EdgeCert{U: p.g.IDOf(e.U), V: p.g.IDOf(e.V)}
	for k, r := range [2]int{ru, rv} {
		ec.Rank[k], ec.Iv[k] = int32(r), core.Narrow(p.iv[r])
	}
	p.objs[hv].Edges = append(p.objs[hv].Edges, ec)
	delete(p.hints, e)
	p.byRank[ru] = append(p.byRank[ru], e)
	p.byRank[rv] = append(p.byRank[rv], e)
	dirty[hv] = true
	for _, x := range p.face {
		if ok, reason := p.setRankInterval(x, chordIv, dirty); !ok {
			return false, reason
		}
	}
	return true, ""
}

// faceUnder fills p.face with the ranks on the face directly under the
// chord [a, b]: the ranks strictly inside whose innermost cover I(·) is
// [a, b] while it is attached. By §3.1 the chords inside [a, b] nest,
// so a walk from a covers them by jumping, at each rank x, to the far
// end of the widest chord other than [a, b] that starts at x and ends
// by b, and by stepping to x+1 when there is none. It stops at b, and
// visits the face's ranks and scans the chords they anchor once each,
// whatever the width b-a. It returns what the repair charges for the
// chord: the ranks visited, a and b included, plus the certificates the
// patch can dirty — the chord's holder, and at each face rank the
// holders of its two path edges and of its chords.
func (p *planarState) faceUnder(a, b int) int {
	p.face = p.face[:0]
	charge := 3
	for x := a; ; {
		next := x + 1
		for _, ge := range p.byRank[x] {
			if c, ok := p.chordOf(ge); ok && c.A == x && c.B <= b && c.B > next && (c.A != a || c.B != b) {
				next = c.B
			}
		}
		if x = next; x >= b {
			return charge
		}
		p.face = append(p.face, x)
		charge += 3 + len(p.byRank[x])
	}
}

// remember records, as e's re-add hint, the corners the removal of e
// leaves at e.U and e.V, named by the neighbors su and sv that follow e
// in the rotation there. A neighbor names the corner whatever a later
// splice or re-prove does to the ranks. Put back at those corners, a
// re-added chord restores the embedding it was removed from, where the
// narrowest pair can split a face that another removed edge needs. The
// hints are the session's (nil in a state no session owns) and hold at
// most n edges: a full set is cleared before it takes another.
func (p *planarState) remember(e graph.Edge, su, sv int) {
	if p.hints == nil {
		return
	}
	if len(p.hints) >= len(p.parent) {
		clear(p.hints)
	}
	p.hints[e] = [2]int{su, sv}
}

// rememberTree records the re-add hint of the tree edge e = {par, c},
// par = parent(c). At par the edge to c is followed by par's corner
// after c's last rank, and at c, whose list ends at its parent, by its
// first corner.
func (p *planarState) rememberTree(e graph.Edge, par, c int) {
	cc := p.copies[c]
	sPar, sC := p.nextAt(cc[len(cc)-1]+1, 0), p.nextAt(cc[0], 0)
	if e.U == par {
		p.remember(e, sPar, sC)
	} else {
		p.remember(e, sC, sPar)
	}
}

// nextAt returns the neighbor of f(x) that follows, in its rotation, the
// chord from rank x to rank o, or the start of the corner x for o = 0.
// Corner x lists its chords to ranks below x, then those above it, each
// by descending rank, and then f(x+1) (see rotation); the root's last
// corner, x = 2n-1, wraps to its first, rank 1.
func (p *planarState) nextAt(x, o int) int {
	key := func(r int) int { // a chord's position in the corner, from 1
		if r < x {
			return x - r
		}
		return x + p.n2 + 1 - r
	}
	k0 := 0
	if o > 0 {
		k0 = key(o)
	}
	next, nextKey := -1, 0
	for _, ge := range p.byRank[x] {
		c, ok := p.chordOf(ge)
		if !ok {
			continue
		}
		r := c.A + c.B - x
		if k := key(r); k > k0 && (next < 0 || k < nextKey) {
			next, nextKey = p.f[r], k
		}
	}
	switch {
	case next >= 0:
		return next
	case x < p.n2:
		return p.f[x+1]
	}
	return p.nextAt(1, 0)
}

// cornerBefore returns the copy of u at whose corner a chord lands just
// before the edge {u, w} in u's rotation: the corner {u, w} leaves from.
// It reports false when {u, w} is not an edge of the state.
func (p *planarState) cornerBefore(u, w int) (int, bool) {
	switch {
	case u == w:
		return 0, false
	case p.parent[w] == u: // entered from the corner before w's first rank
		return p.copies[w][0] - 1, true
	case p.parent[u] == w: // u's last corner ends at its parent
		return p.copies[u][len(p.copies[u])-1], true
	}
	c, ok := p.chordOf(graph.NewEdge(u, w))
	switch {
	case !ok:
		return 0, false
	case p.f[c.A] == u:
		return c.A, true
	}
	return c.B, true
}

// faceAt returns the i-th face bordering rank x that could host a
// chord spanning past x: I(x) for i = -1, else the chord of the i-th
// cotree edge anchored at x. The laminar structure makes these a chain.
func (p *planarState) faceAt(x, i int) (core.Interval, bool) {
	if i < 0 {
		return p.iv[x], true
	}
	return p.chordOf(p.byRank[x][i])
}

// commonFace returns the innermost face bordering both rank a and rank
// b that contains [a, b] — the parent a new chord [a, b] would have. A
// miss means the chord cannot be drawn without crossings under the
// current embedding. The face chains hold a handful of intervals, so
// they are scanned in place.
func (p *planarState) commonFace(a, b int) (core.Interval, bool) {
	best, found := core.Interval{}, false
	for i := -1; i < len(p.byRank[a]); i++ {
		f, ok := p.faceAt(a, i)
		if !ok || f.A > a || f.B < b || (found && (f.A < best.A || (f.A == best.A && f.B >= best.B))) {
			continue
		}
		for j := -1; j < len(p.byRank[b]); j++ {
			if h, ok := p.faceAt(b, j); ok && h == f {
				best, found = f, true
				break
			}
		}
	}
	return best, found
}

// coverOf returns the innermost chord strictly containing [a, b] (its
// parent in the laminar chord family), after [a, b] itself has been
// detached: the innermost of I(a), I(b) and the chords anchored at a or
// b that span past the other endpoint; the sentinel when none exists.
func (p *planarState) coverOf(a, b int) core.Interval {
	best := core.Sentinel(p.n2)
	consider := func(c core.Interval) {
		if c.A > a || c.B < b || (c.A == a && c.B == b) {
			return
		}
		if c.A > best.A || (c.A == best.A && c.B < best.B) {
			best = c
		}
	}
	consider(p.iv[a])
	consider(p.iv[b])
	for _, ge := range p.byRank[a] {
		if c, ok := p.chordOf(ge); ok && c.A == a && c.B > b {
			consider(c)
		}
	}
	for _, ge := range p.byRank[b] {
		if c, ok := p.chordOf(ge); ok && c.B == b && c.A < a {
			consider(c)
		}
	}
	return best
}

// setRankInterval updates I(x) and propagates the new value into every
// edge certificate claiming rank x: the tree-edge certificates of the
// two path edges at x, plus the chords attached at x.
func (p *planarState) setRankInterval(x int, niv core.Interval, dirty map[int]bool) (bool, string) {
	p.iv[x] = niv
	if x > 1 && !p.patch(graph.NewEdge(p.f[x-1], p.f[x]), true, x, niv, dirty) {
		return false, fmt.Sprintf("no tree certificate for path edge (%d,%d)", x-1, x)
	}
	if x < p.n2 && !p.patch(graph.NewEdge(p.f[x], p.f[x+1]), true, x, niv, dirty) {
		return false, fmt.Sprintf("no tree certificate for path edge (%d,%d)", x, x+1)
	}
	for _, ge := range p.byRank[x] {
		if !p.patch(ge, false, x, niv, dirty) {
			return false, "no certificate for chord at rank " + fmt.Sprint(x)
		}
	}
	return true, ""
}

// patch sets the interval of every rank equal to x in the certificate
// of ge, which must be a tree certificate iff tree. (A cotree
// certificate's unused ranks are zero, never a rank x >= 1.)
func (p *planarState) patch(ge graph.Edge, tree bool, x int, niv core.Interval, dirty map[int]bool) bool {
	h, hv, k, ok := p.edgeCertOf(ge)
	if !ok || h.Edges[k].IsTree != tree {
		return false
	}
	ec := &h.Edges[k]
	for i, r := range ec.Rank {
		if int(r) == x {
			ec.Iv[i] = core.Narrow(niv)
		}
	}
	dirty[hv] = true
	return true
}

// edgeCertOf locates the stored certificate of a graph edge: its
// holder, one of the two endpoints, each storing at most MaxEdgeCerts,
// with the holder's index, and its position in the holder's Edges.
func (p *planarState) edgeCertOf(ge graph.Edge) (*core.PlanarCert, int, int, bool) {
	idU, idV := p.g.IDOf(ge.U), p.g.IDOf(ge.V)
	for _, hv := range [2]int{ge.U, ge.V} {
		obj := &p.objs[hv]
		for k := range obj.Edges {
			if ec := &obj.Edges[k]; ec.Involves(idU) && ec.Involves(idV) {
				return obj, hv, k, true
			}
		}
	}
	return nil, 0, 0, false
}

func dropEdge(s []graph.Edge, e graph.Edge) []graph.Edge {
	for i, x := range s {
		if x == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

var _ repairState = (*planarState)(nil)
