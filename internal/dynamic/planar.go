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
//     session falls back to a full re-prove.
//
// Every patched rank interval is propagated into the edge certificates
// that claim it: the tree-edge certificates of the two path edges at
// that rank plus the chords attached there — so the verifier's
// rank -> interval claims stay globally consistent.
//
// Tree-edge removals and node additions renumber ranks globally and are
// out of repair scope. Their re-prove still starts from the embedding
// the state encodes (see rotation and keptRotation), minus the removed
// edges and with new leaves hung at their neighbors, and runs the LR
// test only when the batch adds an edge between two existing nodes.
type planarState struct {
	g      *graph.Graph
	n2     int
	f      []int             // rank -> node index (1..n2)
	copies [][]int           // node index -> ranks, ascending
	parent []int             // spanning-tree parent by index
	iv     []core.Interval   // rank -> I(rank)
	byRank [][]graph.Edge    // rank -> cotree edges whose chord ends there
	objs   []core.PlanarCert // node index -> certificate
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
func (p *planarState) repair(nb *netBatch, budget int) (map[graph.ID]bits.Certificate, []int, bool, string) {
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
	certs := make(map[graph.ID]bits.Certificate, len(dirty))
	changed := make([]int, 0, len(dirty))
	for v := range dirty {
		var w bits.Writer
		if err := p.objs[v].Encode(&w); err != nil {
			return nil, nil, false, "re-encode: " + err.Error()
		}
		certs[p.g.IDOf(v)] = bits.FromWriter(&w)
		changed = append(changed, v)
	}
	return certs, changed, true, ""
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
	if p.parent[e.U] == e.V || p.parent[e.V] == e.U {
		return false, "spanning-tree edge removed (ranks renumber globally)"
	}
	chord, ok := p.chordOf(e)
	if !ok {
		return false, "no chord recorded for removed edge"
	}
	a, b := chord.A, chord.B
	if *budget -= b - a + 1; *budget < 0 {
		return false, fmt.Sprintf("chord [%d,%d] exceeds repair threshold", a, b)
	}
	// Detach the chord before computing its parent cover.
	p.byRank[a] = dropEdge(p.byRank[a], e)
	p.byRank[b] = dropEdge(p.byRank[b], e)
	h, hv, k, _ := p.edgeCertOf(e) // found by chordOf
	h.Edges = append(h.Edges[:k], h.Edges[k+1:]...)
	dirty[hv] = true
	// Re-cover the ranks whose innermost cover was the removed chord.
	j := p.coverOf(a, b)
	chordIv := core.Interval{A: a, B: b}
	for x := a + 1; x < b; x++ {
		if p.iv[x] == chordIv {
			if ok, reason := p.setRankInterval(x, j, dirty); !ok {
				return false, reason
			}
		}
	}
	return true, ""
}

func (p *planarState) addChord(pr [2]graph.ID, budget *int, dirty map[int]bool) (bool, string) {
	e, ok := p.idxPair(pr)
	if !ok {
		return false, "unknown endpoint"
	}
	// Pick an attachable copy pair: ranks a < b of the two endpoints
	// whose face chains share a face containing [a, b] (see the type
	// comment). The innermost common face J becomes the chord's parent.
	// Minimising the width minimises the ranks to patch.
	bestA, bestB := -1, -1
	var bestJ core.Interval
	var rankU, rankV int
	for _, ru := range p.copies[e.U] {
		for _, rv := range p.copies[e.V] {
			a, b := ru, rv
			if a > b {
				a, b = b, a
			}
			if b-a < 2 {
				continue
			}
			j, ok := p.commonFace(a, b)
			if !ok {
				continue
			}
			if bestA == -1 || b-a < bestB-bestA || (b-a == bestB-bestA && a < bestA) {
				bestA, bestB = a, b
				bestJ = j
				rankU, rankV = ru, rv
			}
		}
	}
	if bestA == -1 {
		return false, "no non-crossing chord attachment under the current embedding"
	}
	if *budget -= bestB - bestA + 1; *budget < 0 {
		return false, fmt.Sprintf("chord [%d,%d] exceeds repair threshold", bestA, bestB)
	}
	cu := len(p.objs[e.U].Edges)
	cv := len(p.objs[e.V].Edges)
	hv := e.U
	if cv < cu {
		hv = e.V
	}
	if min(cu, cv) >= core.MaxEdgeCerts {
		return false, "both endpoints at the edge-certificate cap"
	}
	ec := core.EdgeCert{U: p.g.IDOf(e.U), V: p.g.IDOf(e.V)}
	for k, r := range [2]int{rankU, rankV} {
		ec.Rank[k], ec.Iv[k] = int32(r), core.Narrow(p.iv[r])
	}
	p.objs[hv].Edges = append(p.objs[hv].Edges, ec)
	p.byRank[rankU] = append(p.byRank[rankU], e)
	p.byRank[rankV] = append(p.byRank[rankV], e)
	dirty[hv] = true
	chordIv := core.Interval{A: bestA, B: bestB}
	for x := bestA + 1; x < bestB; x++ {
		if p.iv[x] == bestJ {
			if ok, reason := p.setRankInterval(x, chordIv, dirty); !ok {
				return false, reason
			}
		}
	}
	return true, ""
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
