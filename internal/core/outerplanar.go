package core

import (
	"fmt"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

// OuterplanarScheme is the extension announced in the paper's conclusion:
// a 1-round proof-labeling scheme for outerplanarity with O(log n)-bit
// certificates, built on exactly the machinery of Theorem 1.
//
// The certificates are the planarity certificates computed from an
// embedding with every vertex on the outer face, with the transform's
// root corner placed on that face. The outer face then becomes the
// "sentinel region" of G_{T,f} — the area above all chords in the
// path-outerplanar drawing — and outerplanarity reduces to one extra
// local check: every node must own a copy whose interval is the sentinel
// [0, 2n]. Soundness: a copy with sentinel interval touches the unbounded
// face of the reconstructed drawing, so if every node has one, all
// vertices lie on a common face.
type OuterplanarScheme struct{}

// Name implements pls.Scheme.
func (OuterplanarScheme) Name() string { return "outerplanarity" }

// outerplanarTransform builds a transform whose sentinel region is the
// outer face: it embeds g plus an apex vertex (planar iff g is
// outerplanar), removes the apex from the rotation system, and rotates
// the root's order so that the DFS boundary corner sits where the apex
// was — i.e. on the face that contained all vertices.
func outerplanarTransform(g *graph.Graph) (*Transform, error) {
	rot, root, err := outerplanarRotation(g)
	if err != nil {
		return nil, err
	}
	return BuildTransform(g, rot, root)
}

// outerplanarRotation returns the apex-free rotation system and root
// outerplanarTransform cuts along.
func outerplanarRotation(g *graph.Graph) (*embedding.Rotation, int, error) {
	n := g.N()
	apex := g.Clone()
	maxID := graph.ID(0)
	for _, id := range g.IDs() {
		if id > maxID {
			maxID = id
		}
	}
	a := apex.MustAddNode(maxID + 1)
	for v := 0; v < n; v++ {
		apex.MustAddEdge(a, v)
	}
	ok, rotApex, err := planarity.Check(apex)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("core: graph is not outerplanar")
	}
	if planar, err := rotApex.IsPlanar(apex); err != nil || !planar {
		return nil, 0, fmt.Errorf("core: apex embedding failed audit: %v", err)
	}
	// Remove the apex from every rotation; remember where it was so the
	// root's boundary corner can take its place.
	rot := embedding.NewRotation(n)
	root := 0
	for v := 0; v < n; v++ {
		pos := -1
		order := make([]int, 0, len(rotApex.Order[v])-1)
		for i, w := range rotApex.Order[v] {
			if w == a {
				pos = i
				continue
			}
			order = append(order, w)
		}
		if pos < 0 {
			return nil, 0, fmt.Errorf("core: apex missing from rotation of %d", v)
		}
		if v == root {
			// Start the root's rotation right after the apex slot: the DFS
			// boundary (virtual r') then sits on the outer face.
			rotated := make([]int, 0, len(order))
			// pos is the apex slot in the apex-bearing order; the element
			// after it (cyclically), skipping the apex itself, leads.
			full := rotApex.Order[v]
			for off := 1; off < len(full); off++ {
				w := full[(pos+off)%len(full)]
				if w != a {
					rotated = append(rotated, w)
				}
			}
			order = rotated
		}
		rot.Order[v] = order
	}
	return rot, root, nil
}

// Prove implements pls.Scheme.
func (OuterplanarScheme) Prove(g *graph.Graph) (map[graph.ID]bits.Certificate, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", pls.ErrNotInClass)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("%w: disconnected graph", pls.ErrNotInClass)
	}
	tr, err := outerplanarTransform(g)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pls.ErrNotInClass, err)
	}
	// Completeness guard: the construction must give every vertex a
	// sentinel copy; fail loudly here rather than at verification.
	for v := 0; v < n; v++ {
		hasSentinel := false
		for _, r := range tr.Copies[v] {
			if tr.Intervals[r].IsSentinel(tr.N2) {
				hasSentinel = true
				break
			}
		}
		if !hasSentinel {
			return nil, fmt.Errorf("core: vertex %d has no outer-face copy (internal error)", v)
		}
	}
	_, certs, err := proveFromTransform(g, tr, nil)
	if err != nil {
		return nil, err
	}
	return dist.ByID(g, certs), nil
}

// Verify implements pls.Scheme: Algorithm 2 plus the sentinel-copy check.
func (OuterplanarScheme) Verify(view dist.View) error {
	st, err := verifyPlanarCore(view)
	if err != nil {
		return err
	}
	for _, r := range st.MyCopies {
		if iv, ok := st.claim(r); ok && iv.IsSentinel(st.N2) {
			return nil
		}
	}
	return fmt.Errorf("core: node %d has no copy on the outer face", view.ID)
}

var _ pls.Scheme = OuterplanarScheme{}
