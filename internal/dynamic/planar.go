package dynamic

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/graph"
)

// planarState is the structured Theorem 1 certificate assignment kept
// alongside the planarity scheme: the DFS-mapping of the last full
// prove (ranks, copies, tree parents), the live interval table of the
// spanning-path proof, the cotree edges whose chords end at each rank,
// and the decoded per-node certificates (which carry each chord's
// ranks).
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
// out of repair scope.
type planarState struct {
	g      *graph.Graph
	n2     int
	f      []int           // rank -> node index (1..n2)
	copies [][]int         // node index -> ranks, ascending
	parent []int           // spanning-tree parent by index
	iv     []core.Interval // rank -> I(rank)
	byRank [][]graph.Edge  // rank -> cotree edges whose chord ends there
	objs   map[graph.ID]*core.PlanarCert
}

// newPlanarState adopts a prove's transform and certificate objects. A
// chord's ranks and holder are read off its edge certificate when a
// repair needs them (edgeCertOf), so the only index built here is
// byRank: one counting pass over the transform's chords, carved from
// one slab with each rank's run capped so a later append reallocates
// that run alone.
func newPlanarState(g *graph.Graph, p *core.PlanarProof) *planarState {
	tr := p.Transform
	start := make([]int32, tr.N2+2)
	for _, rr := range tr.CotreeRanks {
		if rr[0] != 0 { // tree edges hold [0, 0]
			start[rr[0]+1]++
			start[rr[1]+1]++
		}
	}
	for r := 1; r < len(start); r++ {
		start[r] += start[r-1]
	}
	slab := make([]graph.Edge, start[len(start)-1])
	byRank := make([][]graph.Edge, tr.N2+1)
	for r := range byRank {
		byRank[r] = slab[start[r]:start[r]:start[r+1]]
	}
	for e, rr := range tr.CotreeRanks {
		if rr[0] != 0 {
			byRank[rr[0]] = append(byRank[rr[0]], tr.Edges[e])
			byRank[rr[1]] = append(byRank[rr[1]], tr.Edges[e])
		}
	}
	return &planarState{
		g:      g,
		n2:     tr.N2,
		f:      tr.F,
		copies: tr.Copies,
		parent: tr.Parent,
		iv:     tr.Intervals,
		byRank: byRank,
		objs:   p.Objs,
	}
}

// chordOf returns the chord [lo, hi] of a cotree edge, from the ranks
// in its edge certificate.
func (p *planarState) chordOf(ge graph.Edge) (core.Interval, bool) {
	ec, _, ok := p.edgeCertOf(ge)
	if !ok || ec.IsTree {
		return core.Interval{}, false
	}
	return core.Interval{A: min(ec.RankU, ec.RankV), B: max(ec.RankU, ec.RankV)}, true
}

// repair implements repairState for the planarity scheme.
func (p *planarState) repair(nb *netBatch, budget int) (map[graph.ID]bits.Certificate, []int, bool, string) {
	dirty := make(map[graph.ID]bool)
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
	for id := range dirty {
		var w bits.Writer
		if err := p.objs[id].Encode(&w); err != nil {
			return nil, nil, false, "re-encode: " + err.Error()
		}
		certs[id] = bits.FromWriter(&w)
		if idx, ok := p.g.IndexOf(id); ok {
			changed = append(changed, idx)
		}
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

func (p *planarState) removeChord(pr [2]graph.ID, budget *int, dirty map[graph.ID]bool) (bool, string) {
	e, ok := p.idxPair(pr)
	if !ok {
		return false, "unknown endpoint"
	}
	if p.parent[e.U] == e.V || p.parent[e.V] == e.U {
		return false, "spanning-tree edge removed (ranks renumber globally)"
	}
	ec, hid, ok := p.edgeCertOf(e)
	if !ok || ec.IsTree {
		return false, "no chord recorded for removed edge"
	}
	a, b := min(ec.RankU, ec.RankV), max(ec.RankU, ec.RankV)
	if *budget -= b - a + 1; *budget < 0 {
		return false, fmt.Sprintf("chord [%d,%d] exceeds repair threshold", a, b)
	}
	// Detach the chord before computing its parent cover.
	p.byRank[a] = dropEdge(p.byRank[a], e)
	p.byRank[b] = dropEdge(p.byRank[b], e)
	if !p.dropEdgeCert(hid, pr) {
		return false, "certificate holder lost the edge certificate"
	}
	dirty[hid] = true
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

func (p *planarState) addChord(pr [2]graph.ID, budget *int, dirty map[graph.ID]bool) (bool, string) {
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
	idU, idV := p.g.IDOf(e.U), p.g.IDOf(e.V)
	cu := len(p.objs[idU].Edges)
	cv := len(p.objs[idV].Edges)
	hid := idU
	if cv < cu {
		hid = idV
	}
	if min(cu, cv) >= core.MaxEdgeCerts {
		return false, "both endpoints at the edge-certificate cap"
	}
	ec := &core.EdgeCert{
		IsTree: false,
		IDU:    idU, IDV: idV,
		RankU: rankU, RankV: rankV,
		IU: p.iv[rankU], IV: p.iv[rankV],
	}
	p.objs[hid].Edges = append(p.objs[hid].Edges, ec)
	p.byRank[rankU] = append(p.byRank[rankU], e)
	p.byRank[rankV] = append(p.byRank[rankV], e)
	dirty[hid] = true
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

// facesOf lists the faces bordering rank x that could host a chord
// spanning past x on both sides of the containment filter: the chords
// anchored at x plus I(x). The laminar structure makes this a chain.
func (p *planarState) facesOf(x int) []core.Interval {
	out := []core.Interval{p.iv[x]}
	for _, ge := range p.byRank[x] {
		if c, ok := p.chordOf(ge); ok {
			out = append(out, c)
		}
	}
	return out
}

// commonFace returns the innermost face bordering both rank a and rank
// b that contains [a, b] — the parent a new chord [a, b] would have. A
// miss means the chord cannot be drawn without crossings under the
// current embedding.
func (p *planarState) commonFace(a, b int) (core.Interval, bool) {
	fb := make(map[core.Interval]bool)
	for _, f := range p.facesOf(b) {
		if f.A <= a && f.B >= b {
			fb[f] = true
		}
	}
	best, found := core.Interval{}, false
	for _, f := range p.facesOf(a) {
		if f.A > a || f.B < b || !fb[f] {
			continue
		}
		if !found || f.A > best.A || (f.A == best.A && f.B < best.B) {
			best, found = f, true
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
func (p *planarState) setRankInterval(x int, niv core.Interval, dirty map[graph.ID]bool) (bool, string) {
	p.iv[x] = niv
	if x > 1 {
		if ok := p.patchPathEdge(x-1, x, x, niv, dirty); !ok {
			return false, fmt.Sprintf("no tree certificate for path edge (%d,%d)", x-1, x)
		}
	}
	if x < p.n2 {
		if ok := p.patchPathEdge(x, x+1, x, niv, dirty); !ok {
			return false, fmt.Sprintf("no tree certificate for path edge (%d,%d)", x, x+1)
		}
	}
	for _, ge := range p.byRank[x] {
		if ok := p.patchChord(ge, x, niv, dirty); !ok {
			return false, "no certificate for chord at rank " + fmt.Sprint(x)
		}
	}
	return true, ""
}

// patchPathEdge updates the interval fields equal to rank x in the tree
// certificate of the tree edge underlying path edge (i, i+1).
func (p *planarState) patchPathEdge(i, j, x int, niv core.Interval, dirty map[graph.ID]bool) bool {
	ge := graph.NewEdge(p.f[i], p.f[j])
	ec, hid, ok := p.edgeCertOf(ge)
	if !ok || !ec.IsTree {
		return false
	}
	if ec.PA == x {
		ec.IPA = niv
	}
	if ec.CMin == x {
		ec.ICMin = niv
	}
	if ec.CMax == x {
		ec.ICMax = niv
	}
	if ec.PB == x {
		ec.IPB = niv
	}
	dirty[hid] = true
	return true
}

// patchChord updates the interval field of the endpoint at rank x in a
// chord's certificate.
func (p *planarState) patchChord(ge graph.Edge, x int, niv core.Interval, dirty map[graph.ID]bool) bool {
	ec, hid, ok := p.edgeCertOf(ge)
	if !ok || ec.IsTree {
		return false
	}
	if ec.RankU == x {
		ec.IU = niv
	}
	if ec.RankV == x {
		ec.IV = niv
	}
	dirty[hid] = true
	return true
}

// edgeCertOf locates the stored certificate of a graph edge and its
// holder: one of the two endpoints, each storing at most MaxEdgeCerts.
func (p *planarState) edgeCertOf(ge graph.Edge) (*core.EdgeCert, graph.ID, bool) {
	idU, idV := p.g.IDOf(ge.U), p.g.IDOf(ge.V)
	for _, hid := range [2]graph.ID{idU, idV} {
		obj, ok := p.objs[hid]
		if !ok {
			continue
		}
		for _, ec := range obj.Edges {
			if ec.Involves(idU) && ec.Involves(idV) {
				return ec, hid, true
			}
		}
	}
	return nil, 0, false
}

// dropEdgeCert removes the certificate of edge pr from holder hid.
func (p *planarState) dropEdgeCert(hid graph.ID, pr [2]graph.ID) bool {
	obj, ok := p.objs[hid]
	if !ok {
		return false
	}
	for i, ec := range obj.Edges {
		if ec.IsTree {
			continue
		}
		if (ec.IDU == pr[0] && ec.IDV == pr[1]) || (ec.IDU == pr[1] && ec.IDV == pr[0]) {
			obj.Edges = append(obj.Edges[:i], obj.Edges[i+1:]...)
			return true
		}
	}
	return false
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
