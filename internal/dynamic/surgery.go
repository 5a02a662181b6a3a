package dynamic

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// treeRepair is the repair state of the schemes whose certificates carry
// the Korman–Kutten–Peleg spanning-tree sub-proof: the spanning-tree
// scheme (a bare pls.TreeCert) and the non-planarity scheme (a
// core.NonPlanarCert, whose Kuratowski witness it also guards).
//
// Edge additions change no certificate: the tree proof ignores cotree
// edges beyond root/n agreement, which new neighbors satisfy, and an
// added edge never breaks a witness. Removing a cotree edge off the
// witness changes none either. Removing a tree edge triggers surgery.
// Removing a witness edge may restore planarity and always falls back
// to a full re-prove (which flips the session's scheme if it did).
type treeRepair struct {
	g      *graph.Graph
	parent []int                                     // by index; the root is its own parent
	tree   []*pls.TreeCert                           // by index; surgery patches Parent, Dist and Size
	objs   []interface{ Encode(*bits.Writer) error } // by index: the certificate tree[v] belongs to
	// interior marks the branch pairs (PathA, PathB) whose witness path
	// has an interior vertex; the other required pairs are joined by a
	// direct edge. Both indices are 3-bit fields.
	interior [8][8]bool
}

// newTreeRepair reads the tree off the certificates' Parent, Dist and
// Size — no BFS, so a tree that surgery reshaped comes back as it is —
// and, under the non-planarity scheme, the witness off the roles, in
// one pass over the certificate objects, given by node index. The
// state takes objs over.
func newTreeRepair[C pls.TreeCert | core.NonPlanarCert](g *graph.Graph, objs []C) (*treeRepair, error) {
	n := g.N()
	if len(objs) != n {
		return nil, fmt.Errorf("%d certificates for %d nodes", len(objs), n)
	}
	t := &treeRepair{g: g, parent: make([]int, n), tree: make([]*pls.TreeCert, n), objs: make([]interface{ Encode(*bits.Writer) error }, n)}
	for v := range objs {
		switch c := any(&objs[v]).(type) {
		case *pls.TreeCert:
			t.tree[v], t.objs[v] = c, c
		case *core.NonPlanarCert:
			t.tree[v], t.objs[v] = &c.Tree, c
			if c.Role == core.RoleInterior {
				t.interior[c.PathA][c.PathB] = true
			}
		}
		var ok bool
		if t.parent[v], ok = g.IndexOf(t.tree[v].Parent); !ok {
			return nil, fmt.Errorf("node %d names unknown parent %d", g.IDOf(v), t.tree[v].Parent)
		}
	}
	return t, nil
}

// inWitness reports whether {a, b} is an edge of the certified
// Kuratowski subdivision: an interior vertex's edge to its predecessor
// or successor, or the direct edge of a required branch pair whose path
// has no interior vertex.
func (t *treeRepair) inWitness(a, b int) bool {
	ca, ok := t.objs[a].(*core.NonPlanarCert)
	if !ok {
		return false
	}
	cb := t.objs[b].(*core.NonPlanarCert)
	switch {
	case ca.Role == core.RoleInterior:
		return ca.PrevID == cb.Tree.SelfID || ca.NextID == cb.Tree.SelfID
	case cb.Role == core.RoleInterior:
		return cb.PrevID == ca.Tree.SelfID || cb.NextID == ca.Tree.SelfID
	case ca.Role == core.RoleBranch && cb.Role == core.RoleBranch:
		lo, hi := min(ca.BranchIdx, cb.BranchIdx), max(ca.BranchIdx, cb.BranchIdx)
		return (ca.K5 || lo < 3 && hi >= 3) && !t.interior[lo][hi]
	}
	return false
}

// subtree lists the tree below v, v first, in BFS order over g's
// adjacency plus the batch's removed edges cut (a tree child is a
// neighbor whose parent is its parent). The batch is already applied to
// g, so a tree edge it removes but whose surgery is still pending is
// found in cut alone. It stops early, returning ok=false, once the list
// outgrows limit.
func (t *treeRepair) subtree(v, limit int, cut map[int][]int) (sub []int, ok bool) {
	sub = []int{v}
	for i := 0; i < len(sub); i++ {
		u := sub[i]
		for _, ws := range [2][]int{t.g.Neighbors(u), cut[u]} {
			for _, w := range ws {
				if t.parent[w] == u {
					if sub = append(sub, w); len(sub) > limit {
						return nil, false
					}
				}
			}
		}
	}
	return sub, true
}

// surgery repairs the tree after the tree edge {p, c} was removed from
// g: it finds a replacement edge (x, y) of g leaving c's old subtree S,
// re-roots S at x by reversing the parent chain x..c, hangs x under y,
// and patches depths inside S plus subtree sizes along both root paths.
// S is every descendant of c, also below tree edges in cut that await
// their own surgery; the reversed chain may keep such an edge, which
// that surgery then replaces. The dirty indices are every node whose
// (Dist, Parent, Size) triple may have changed. ok=false before the
// re-rooting leaves the tree untouched.
func (t *treeRepair) surgery(p, c int, budget *int, cut map[int][]int) (dirty []int, ok bool, reason string) {
	sub, ok := t.subtree(c, *budget, cut)
	if !ok {
		return nil, false, "subtree scope exceeds repair threshold"
	}
	inSub := make(map[int]bool, len(sub))
	for _, v := range sub {
		inSub[v] = true
	}
	// Deterministic replacement: first exit edge in subtree BFS order.
	x, y := -1, -1
	for _, v := range sub {
		for _, w := range t.g.Neighbors(v) {
			if !inSub[w] {
				x, y = v, w
				break
			}
		}
		if x >= 0 {
			break
		}
	}
	if x < 0 {
		return nil, false, "tree-edge removal disconnects the graph"
	}
	cost := len(sub) + int(t.tree[p].Dist) + int(t.tree[y].Dist) + 2
	if *budget -= cost; *budget < 0 {
		return nil, false, "surgery scope exceeds repair threshold"
	}

	// Re-root S at x: reverse the chain x -> ... -> c, hang x under y.
	for z, up := x, y; ; {
		next := t.parent[z]
		t.parent[z], t.tree[z].Parent = up, t.g.IDOf(up)
		if z == c {
			break
		}
		z, up = next, z
	}
	// Depths top-down and sizes bottom-up inside S (now x's subtree).
	order, _ := t.subtree(x, len(sub), cut)
	for _, v := range order {
		t.tree[v].Dist = t.tree[t.parent[v]].Dist + 1
		t.tree[v].Size = 1
	}
	for i := len(order) - 1; i > 0; i-- {
		t.tree[t.parent[order[i]]].Size += t.tree[order[i]].Size
	}

	// Subtree sizes along the two root paths: p's lose S, y's gain it
	// (the shared suffix above the LCA nets to zero but is re-encoded
	// harmlessly; the unsigned sum wraps back).
	dirty = append(dirty, sub...)
	sz := uint64(len(sub))
	for _, walk := range [2]struct {
		z int
		d uint64
	}{{p, -sz}, {y, sz}} {
		for z, steps := walk.z, 0; ; z, steps = t.parent[z], steps+1 {
			if steps == len(t.parent) {
				return nil, false, "parent cycle in the spanning tree"
			}
			t.tree[z].Size += walk.d
			dirty = append(dirty, z)
			if t.parent[z] == z {
				break
			}
		}
	}
	return dirty, true, ""
}

// repair implements repairState. A failed surgery may leave earlier
// surgeries of the batch applied; the session then replaces the state.
func (t *treeRepair) repair(nb *netBatch, budget int) ([]int, []bits.Certificate, bool, string) {
	cut := make(map[int][]int, 2*len(nb.removedEdges))
	for _, pr := range nb.removedEdges { // the batch removed edges between known nodes
		ia, _ := t.g.IndexOf(pr[0])
		ib, _ := t.g.IndexOf(pr[1])
		cut[ia] = append(cut[ia], ib)
		cut[ib] = append(cut[ib], ia)
	}
	dirty := make(map[int]bool)
	for _, pr := range nb.removedEdges {
		ia, _ := t.g.IndexOf(pr[0])
		ib, _ := t.g.IndexOf(pr[1])
		if t.inWitness(ia, ib) {
			return nil, nil, false, fmt.Sprintf("witness edge {%d,%d} removed", pr[0], pr[1])
		}
		if t.parent[ib] == ia {
			ia, ib = ib, ia
		}
		if t.parent[ia] != ib {
			continue // cotree edges never appear in tree certificates
		}
		d, ok, reason := t.surgery(ib, ia, &budget, cut)
		if !ok {
			return nil, nil, false, reason
		}
		for _, z := range d {
			dirty[z] = true
		}
	}
	return reencode(dirty, func(v int, w *bits.Writer) error { return t.objs[v].Encode(w) })
}

var _ repairState = (*treeRepair)(nil)
