package core

import (
	"fmt"
	"slices"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

// Role of a node in the certified Kuratowski subdivision.
type Role uint8

// Subdivision roles.
const (
	RoleNone     Role = 0 // not part of the subdivision
	RoleBranch   Role = 1 // one of the 5 (K5) or 6 (K3,3) branch vertices
	RoleInterior Role = 2 // interior vertex of a subdivision path
)

// NonPlanarCert is the certificate of the folklore scheme for
// NON-planarity sketched in Section 2 of the paper: a spanning tree rooted
// at a branch vertex of a subdivided K5 or K3,3, the identifiers of all
// branch vertices (shared by every node, checked for consistency across
// edges), and each subdivision vertex's position.
type NonPlanarCert struct {
	Tree pls.TreeCert
	K5   bool // true: K5 witness (5 branches); false: K3,3 (6 branches)

	BranchIDs []graph.ID // 5 or 6 entries, shared network-wide

	Role Role
	// RoleBranch: index into BranchIDs.
	BranchIdx uint8
	// RoleInterior: the path from BranchIDs[PathA] to BranchIDs[PathB]
	// (PathA < PathB), 1-based position counted from PathA, and the
	// identifiers of the previous/next vertex on the path.
	PathA, PathB uint8
	Pos          uint64
	PrevID       graph.ID
	NextID       graph.ID
}

// Encode serialises the certificate.
func (c *NonPlanarCert) Encode(w *bits.Writer) error {
	if err := c.Tree.Encode(w); err != nil {
		return err
	}
	w.WriteBit(c.K5)
	want := 6
	if c.K5 {
		want = 5
	}
	if len(c.BranchIDs) != want {
		return fmt.Errorf("core: %d branch IDs, want %d", len(c.BranchIDs), want)
	}
	for _, id := range c.BranchIDs {
		if err := w.WriteVar(uint64(id)); err != nil {
			return err
		}
	}
	if err := w.WriteUint(uint64(c.Role), 2); err != nil {
		return err
	}
	switch c.Role {
	case RoleBranch:
		return w.WriteUint(uint64(c.BranchIdx), 3)
	case RoleInterior:
		if err := w.WriteUint(uint64(c.PathA), 3); err != nil {
			return err
		}
		if err := w.WriteUint(uint64(c.PathB), 3); err != nil {
			return err
		}
		if err := w.WriteVar(c.Pos); err != nil {
			return err
		}
		if err := w.WriteVar(uint64(c.PrevID)); err != nil {
			return err
		}
		return w.WriteVar(uint64(c.NextID))
	}
	return nil
}

// DecodeNonPlanarCert reads a NonPlanarCert into fresh objects.
func DecodeNonPlanarCert(r *bits.Reader) (*NonPlanarCert, error) {
	c := new(NonPlanarCert)
	if err := decodeNonPlanarCertInto(r, c); err != nil {
		return nil, err
	}
	return c, nil
}

// decodeNonPlanarCertInto reads a NonPlanarCert into c, reusing c's
// BranchIDs backing (c may be a slab entry holding a previous node's
// decode — every field is rewritten).
func decodeNonPlanarCertInto(r *bits.Reader, c *NonPlanarCert) error {
	*c = NonPlanarCert{BranchIDs: c.BranchIDs[:0]}
	if err := pls.DecodeTreeCertInto(r, &c.Tree); err != nil {
		return err
	}
	var err error
	if c.K5, err = r.ReadBit(); err != nil {
		return err
	}
	want := 6
	if c.K5 {
		want = 5
	}
	for i := 0; i < want; i++ {
		v, err := r.ReadVar()
		if err != nil {
			return err
		}
		c.BranchIDs = append(c.BranchIDs, graph.ID(v))
	}
	role, err := r.ReadUint(2)
	if err != nil {
		return err
	}
	c.Role = Role(role)
	switch c.Role {
	case RoleNone:
	case RoleBranch:
		v, err := r.ReadUint(3)
		if err != nil {
			return err
		}
		c.BranchIdx = uint8(v)
	case RoleInterior:
		a, err := r.ReadUint(3)
		if err != nil {
			return err
		}
		b, err := r.ReadUint(3)
		if err != nil {
			return err
		}
		c.PathA, c.PathB = uint8(a), uint8(b)
		if c.Pos, err = r.ReadVar(); err != nil {
			return err
		}
		p, err := r.ReadVar()
		if err != nil {
			return err
		}
		nx, err := r.ReadVar()
		if err != nil {
			return err
		}
		c.PrevID, c.NextID = graph.ID(p), graph.ID(nx)
	default:
		return fmt.Errorf("core: invalid role %d", role)
	}
	return nil
}

// NonPlanarScheme is the proof-labeling scheme for the class of NON-planar
// graphs ("folklore in the context of distributed certification",
// Section 2): the prover exhibits a subdivided K5 or K3,3 and a spanning
// tree rooted inside it.
type NonPlanarScheme struct{}

// Name implements pls.Scheme.
func (NonPlanarScheme) Name() string { return "non-planarity" }

// Prove implements pls.Scheme.
func (NonPlanarScheme) Prove(g *graph.Graph) (map[graph.ID]bits.Certificate, error) {
	_, certs, err := ProveNonPlanar(g)
	if err != nil {
		return nil, err
	}
	return dist.ByID(g, certs), nil
}

// ProveNonPlanar runs the non-planarity prover and returns the
// certificate objects and their encodings, both by node index.
func ProveNonPlanar(g *graph.Graph) ([]NonPlanarCert, []bits.Certificate, error) {
	objs, err := BuildNonPlanarProof(g)
	if err != nil {
		return nil, nil, err
	}
	certs := make([]bits.Certificate, len(objs))
	for i := range objs {
		var w bits.Writer
		if err := objs[i].Encode(&w); err != nil {
			return nil, nil, err
		}
		certs[i] = bits.FromWriter(&w)
	}
	return objs, certs, nil
}

// BuildNonPlanarProof computes the structured folklore certificates, by
// node index. They name the witness and the spanning tree completely,
// so the dynamic subsystem reads both back off them.
func BuildNonPlanarProof(g *graph.Graph) ([]NonPlanarCert, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, fmt.Errorf("%w: need a connected graph", pls.ErrNotInClass)
	}
	witness, err := planarity.Kuratowski(g)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pls.ErrNotInClass, err)
	}
	k5 := witness.Kind == planarity.KindK5
	branchIDs := make([]graph.ID, len(witness.Branch))
	for i, b := range witness.Branch {
		branchIDs[i] = g.IDOf(b)
	}
	// Spanning tree rooted at branch 0.
	tcs, err := pls.BuildTreeCerts(g, witness.Branch[0])
	if err != nil {
		return nil, err
	}
	certs := make([]NonPlanarCert, g.N())
	for v := range certs {
		certs[v] = NonPlanarCert{
			Tree:      *tcs[g.IDOf(v)],
			K5:        k5,
			BranchIDs: branchIDs,
			Role:      RoleNone,
		}
	}
	for i, b := range witness.Branch {
		c := &certs[b]
		c.Role = RoleBranch
		c.BranchIdx = uint8(i)
	}
	for _, path := range witness.Paths {
		// Paths join branch vertices; a scan of the ≤6 beats a map.
		a := uint8(slices.Index(witness.Branch, path[0]))
		b := uint8(slices.Index(witness.Branch, path[len(path)-1]))
		verts := path
		if a > b {
			a, b = b, a
			verts = make([]int, len(path))
			for i, v := range path {
				verts[len(path)-1-i] = v
			}
		}
		for p := 1; p < len(verts)-1; p++ {
			c := &certs[verts[p]]
			c.Role = RoleInterior
			c.PathA, c.PathB = a, b
			c.Pos = uint64(p)
			c.PrevID = g.IDOf(verts[p-1])
			c.NextID = g.IDOf(verts[p+1])
		}
	}
	return certs, nil
}

// requiredPeers lists the branch indices that branch b must reach by a
// subdivision path.
func requiredPeers(k5 bool, b uint8) []uint8 {
	var out []uint8
	if k5 {
		for i := uint8(0); i < 5; i++ {
			if i != b {
				out = append(out, i)
			}
		}
		return out
	}
	// K3,3: sides {0,1,2} and {3,4,5}.
	if b < 3 {
		return []uint8{3, 4, 5}
	}
	return []uint8{0, 1, 2}
}

// containsID reports whether id occurs in ids (at most 6 entries — the
// branch list — so a scan beats any set structure).
func containsID(ids []graph.ID, id graph.ID) bool {
	for _, b := range ids {
		if b == id {
			return true
		}
	}
	return false
}

// Verify implements pls.Scheme.
func (NonPlanarScheme) Verify(view dist.View) error {
	sc := npScratchFor(view)
	sc.reset(len(view.Neighbors))
	view.Cert.ResetReader(&sc.r)
	if err := decodeNonPlanarCertInto(&sc.r, &sc.self); err != nil {
		return err
	}
	self := &sc.self
	if self.Tree.SelfID != view.ID {
		return fmt.Errorf("core: certificate claims ID %d, node is %d", self.Tree.SelfID, view.ID)
	}
	for i := range view.Neighbors {
		c := &sc.nbrs[i]
		view.Neighbors[i].Cert.ResetReader(&sc.r)
		if err := decodeNonPlanarCertInto(&sc.r, c); err != nil {
			return err
		}
		if c.Tree.SelfID != view.Neighbors[i].ID {
			return fmt.Errorf("core: neighbor certificate ID mismatch")
		}
		sc.treeNbrs = append(sc.treeNbrs, &c.Tree)
	}
	if err := pls.VerifyTreeCert(&self.Tree, view.ID, view.Degree, sc.treeNbrs); err != nil {
		return err
	}
	// Global consistency of the witness description (in view order, so a
	// node with several disagreeing neighbors reports the same one every
	// run).
	for i := range view.Neighbors {
		id, nc := view.Neighbors[i].ID, &sc.nbrs[i]
		if nc.K5 != self.K5 {
			return fmt.Errorf("core: neighbor %d disagrees on witness kind", id)
		}
		for i := range self.BranchIDs {
			if nc.BranchIDs[i] != self.BranchIDs[i] {
				return fmt.Errorf("core: neighbor %d disagrees on branch IDs", id)
			}
		}
	}
	// Branch identifiers must be pairwise distinct.
	for i, id := range self.BranchIDs {
		if containsID(self.BranchIDs[:i], id) {
			return fmt.Errorf("core: duplicate branch ID %d", id)
		}
	}
	// The spanning-tree root must be branch 0, so the subdivision actually
	// lives in this network.
	if self.Tree.Dist == 0 && self.Tree.SelfID != self.BranchIDs[0] {
		return fmt.Errorf("core: root %d is not branch 0 (%d)", self.Tree.SelfID, self.BranchIDs[0])
	}

	switch self.Role {
	case RoleNone:
		if containsID(self.BranchIDs, view.ID) {
			return fmt.Errorf("core: node %d is listed as a branch but has role none", view.ID)
		}
		return nil

	case RoleBranch:
		b := self.BranchIdx
		if int(b) >= len(self.BranchIDs) {
			return fmt.Errorf("core: branch index %d out of range", b)
		}
		if self.BranchIDs[b] != view.ID {
			return fmt.Errorf("core: node %d claims branch %d owned by %d", view.ID, b, self.BranchIDs[b])
		}
		for _, peer := range requiredPeers(self.K5, b) {
			lo, hi := b, peer
			if lo > hi {
				lo, hi = hi, lo
			}
			found := false
			for i := range sc.nbrs {
				nc := &sc.nbrs[i]
				if nc.Role == RoleBranch && nc.BranchIdx == peer {
					found = true // direct branch-branch edge
					break
				}
				if nc.Role != RoleInterior || nc.PathA != lo || nc.PathB != hi {
					continue
				}
				// First interior from my side.
				if b == lo && nc.Pos == 1 && nc.PrevID == view.ID {
					found = true
					break
				}
				if b == hi && nc.NextID == view.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("core: branch %d has no path toward branch %d", b, peer)
			}
		}
		return nil

	case RoleInterior:
		if containsID(self.BranchIDs, view.ID) {
			return fmt.Errorf("core: interior node %d is listed as a branch", view.ID)
		}
		lo, hi := self.PathA, self.PathB
		if lo >= hi || int(hi) >= len(self.BranchIDs) {
			return fmt.Errorf("core: invalid path (%d,%d)", lo, hi)
		}
		// K3,3 paths join opposite sides.
		if !self.K5 && !(lo < 3 && hi >= 3) {
			return fmt.Errorf("core: path (%d,%d) joins same side of K3,3", lo, hi)
		}
		if self.Pos < 1 {
			return fmt.Errorf("core: interior position %d", self.Pos)
		}
		if self.PrevID == self.NextID {
			return fmt.Errorf("core: prev and next coincide")
		}
		prev := sc.byID(view, self.PrevID)
		next := sc.byID(view, self.NextID)
		if prev == nil || next == nil {
			return fmt.Errorf("core: prev/next not neighbors")
		}
		// Previous on the path: interior at Pos-1, or branch lo if Pos==1.
		if self.Pos == 1 {
			if !(prev.Role == RoleBranch && prev.BranchIdx == lo) {
				return fmt.Errorf("core: predecessor of first interior is not branch %d", lo)
			}
		} else if !(prev.Role == RoleInterior && prev.PathA == lo && prev.PathB == hi &&
			prev.Pos == self.Pos-1 && prev.NextID == view.ID) {
			return fmt.Errorf("core: predecessor mismatch on path (%d,%d) at %d", lo, hi, self.Pos)
		}
		// Next on the path: interior at Pos+1, or branch hi.
		if next.Role == RoleBranch {
			if next.BranchIdx != hi {
				return fmt.Errorf("core: successor branch %d, want %d", next.BranchIdx, hi)
			}
		} else if !(next.Role == RoleInterior && next.PathA == lo && next.PathB == hi &&
			next.Pos == self.Pos+1 && next.PrevID == view.ID) {
			return fmt.Errorf("core: successor mismatch on path (%d,%d) at %d", lo, hi, self.Pos)
		}
		return nil
	}
	return fmt.Errorf("core: invalid role %d", self.Role)
}

var _ pls.Scheme = NonPlanarScheme{}
