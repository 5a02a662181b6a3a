package core

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/pls"
)

// MaxEdgeCerts is the cap on edge certificates stored per node. Planar
// graphs are 5-degenerate, so the honest prover never needs more; the
// verifier enforces the cap, which keeps certificates at O(log n) bits.
const MaxEdgeCerts = 5

// EdgeCert is the certificate c(e) of one edge of G (Section 3.3). A tree
// edge {parent p, child c} is mapped onto the two path edges
// {PA, CMin} and {CMax, PB} of G_{T,f}: PA and PB are the ranks of p's
// copies around c's subtree, CMin/CMax are c's first/last copies. A cotree
// edge {u, v} is mapped onto the single edge {RankU, RankV}. Each rank
// travels with its path-outerplanarity interval.
type EdgeCert struct {
	IsTree bool

	// Tree edge fields.
	ParentID, ChildID      graph.ID
	PA, CMin, CMax, PB     int
	IPA, ICMin, ICMax, IPB Interval

	// Cotree edge fields.
	IDU, IDV     graph.ID
	RankU, RankV int
	IU, IV       Interval
}

// Involves reports whether id is an endpoint of the certified edge.
func (e *EdgeCert) Involves(id graph.ID) bool {
	if e.IsTree {
		return e.ParentID == id || e.ChildID == id
	}
	return e.IDU == id || e.IDV == id
}

// Other returns the endpoint different from id.
func (e *EdgeCert) Other(id graph.ID) graph.ID {
	if e.IsTree {
		if e.ParentID == id {
			return e.ChildID
		}
		return e.ParentID
	}
	if e.IDU == id {
		return e.IDV
	}
	return e.IDU
}

func (e *EdgeCert) encode(w *bits.Writer, rankWidth int) error {
	w.WriteBit(e.IsTree)
	if e.IsTree {
		ranks := [...]int{e.PA, e.CMin, e.CMax, e.PB,
			e.IPA.A, e.IPA.B, e.ICMin.A, e.ICMin.B, e.ICMax.A, e.ICMax.B, e.IPB.A, e.IPB.B}
		return encodeEdgeFields(w, rankWidth, e.ParentID, e.ChildID, ranks[:])
	}
	ranks := [...]int{e.RankU, e.RankV, e.IU.A, e.IU.B, e.IV.A, e.IV.B}
	return encodeEdgeFields(w, rankWidth, e.IDU, e.IDV, ranks[:])
}

// encodeEdgeFields writes an edge certificate's two endpoint identifiers
// and then its ranks (each rank, then each interval's two ends), every
// rank in rankWidth bits.
func encodeEdgeFields(w *bits.Writer, rankWidth int, a, b graph.ID, ranks []int) error {
	if err := w.WriteVar(uint64(a)); err != nil {
		return err
	}
	if err := w.WriteVar(uint64(b)); err != nil {
		return err
	}
	for _, r := range ranks {
		if err := w.WriteUint(uint64(r), rankWidth); err != nil {
			return err
		}
	}
	return nil
}

// decodeEdgeCertInto reads one edge certificate from r into e, which
// may be a fresh object or a slab entry about to be reused.
func decodeEdgeCertInto(r *bits.Reader, rankWidth int, e *EdgeCert) error {
	isTree, err := r.ReadBit()
	if err != nil {
		return err
	}
	readRank := func() (int, error) {
		v, err := r.ReadUint(rankWidth)
		return int(v), err
	}
	readIv := func() (Interval, error) {
		a, err := readRank()
		if err != nil {
			return Interval{}, err
		}
		b, err := readRank()
		if err != nil {
			return Interval{}, err
		}
		return Interval{A: a, B: b}, nil
	}
	*e = EdgeCert{IsTree: isTree}
	if isTree {
		p, err := r.ReadVar()
		if err != nil {
			return err
		}
		c, err := r.ReadVar()
		if err != nil {
			return err
		}
		e.ParentID, e.ChildID = graph.ID(p), graph.ID(c)
		ranks := [...]*int{&e.PA, &e.CMin, &e.CMax, &e.PB}
		for _, dst := range ranks {
			if *dst, err = readRank(); err != nil {
				return err
			}
		}
		ivs := [...]*Interval{&e.IPA, &e.ICMin, &e.ICMax, &e.IPB}
		for _, dst := range ivs {
			if *dst, err = readIv(); err != nil {
				return err
			}
		}
		return nil
	}
	u, err := r.ReadVar()
	if err != nil {
		return err
	}
	v, err := r.ReadVar()
	if err != nil {
		return err
	}
	e.IDU, e.IDV = graph.ID(u), graph.ID(v)
	if e.RankU, err = readRank(); err != nil {
		return err
	}
	if e.RankV, err = readRank(); err != nil {
		return err
	}
	if e.IU, err = readIv(); err != nil {
		return err
	}
	if e.IV, err = readIv(); err != nil {
		return err
	}
	return nil
}

// PlanarCert is the full node certificate of Theorem 1: the spanning-tree
// sub-proof plus at most MaxEdgeCerts edge certificates assigned to this
// node through the 5-degeneracy ordering.
type PlanarCert struct {
	Tree  pls.TreeCert
	Edges []*EdgeCert
}

// rankWidth returns the fixed bit width for ranks, derived from the
// claimed n (ranks live in [0, 2n] including interval sentinels).
func rankWidth(n uint64) int { return bits.WidthFor(2 * n) }

// Encode serialises the certificate.
func (c *PlanarCert) Encode(w *bits.Writer) error {
	if err := c.Tree.Encode(w); err != nil {
		return err
	}
	if len(c.Edges) > MaxEdgeCerts {
		return fmt.Errorf("core: %d edge certificates exceed the cap %d", len(c.Edges), MaxEdgeCerts)
	}
	if err := w.WriteUint(uint64(len(c.Edges)), 3); err != nil {
		return err
	}
	rw := rankWidth(c.Tree.N)
	for _, e := range c.Edges {
		if err := e.encode(w, rw); err != nil {
			return err
		}
	}
	return nil
}

// DecodePlanarCert reads a PlanarCert into fresh objects.
func DecodePlanarCert(r *bits.Reader) (*PlanarCert, error) {
	c := new(PlanarCert)
	if err := decodePlanarCertInto(r, c, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// decodePlanarCertInto reads a PlanarCert into c, carving the edge
// certificates out of arena when it is non-nil and allocating them
// fresh otherwise. Both paths run the identical decode logic, so pooled
// and fresh decoding cannot diverge.
func decodePlanarCertInto(r *bits.Reader, c *PlanarCert, arena *edgeArena) error {
	if err := pls.DecodeTreeCertInto(r, &c.Tree); err != nil {
		return err
	}
	cnt, err := r.ReadUint(3)
	if err != nil {
		return err
	}
	if cnt > MaxEdgeCerts {
		return fmt.Errorf("core: %d edge certificates exceed the cap %d", cnt, MaxEdgeCerts)
	}
	rw := rankWidth(c.Tree.N)
	if arena == nil {
		c.Edges = nil
		for i := uint64(0); i < cnt; i++ {
			e := new(EdgeCert)
			if err := decodeEdgeCertInto(r, rw, e); err != nil {
				return err
			}
			c.Edges = append(c.Edges, e)
		}
		return nil
	}
	c.Edges = arena.take(int(cnt))
	for _, e := range c.Edges {
		if err := decodeEdgeCertInto(r, rw, e); err != nil {
			return err
		}
	}
	return nil
}

// PlanarScheme is the 1-round proof-labeling scheme for planarity of
// Theorem 1, with certificates of O(log n) bits.
type PlanarScheme struct{}

// Name implements pls.Scheme.
func (PlanarScheme) Name() string { return "planarity" }

// Prove implements pls.Scheme: plan the embedding, cut along the DFS tree
// (Lemma 3), compute intervals, and distribute edge certificates along a
// degeneracy ordering so every node stores at most five.
func (PlanarScheme) Prove(g *graph.Graph) (map[graph.ID]bits.Certificate, error) {
	p, err := ProvePlanar(g, nil)
	if err != nil {
		return nil, err
	}
	return p.Certs, nil
}

// PlanarProof is the planarity prover's structured output: the
// transform, the certificate objects and their encoding.
type PlanarProof struct {
	Transform *Transform
	Objs      map[graph.ID]*PlanarCert
	Certs     map[graph.ID]bits.Certificate
}

// ProvePlanar runs the planarity prover, recording its steps — the LR
// test, the Euler audit, the transform, the certificate objects and the
// encoding — as children of sp, in that order (nil records nothing).
// Graphs outside the class fail with pls.ErrNotInClass.
func ProvePlanar(g *graph.Graph, sp *obs.Span) (*PlanarProof, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("%w: empty graph", pls.ErrNotInClass)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("%w: disconnected graph", pls.ErrNotInClass)
	}
	tr, err := transformOf(g, sp)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", pls.ErrNotInClass, err)
	}
	return proveFromTransform(g, tr, sp)
}

// proveFromTransform builds the Theorem 1 certificates from a completed
// transform (shared by the planarity and outerplanarity provers). It
// encodes straight from the object slab, in vertex order, so the
// encoder walks the slabs sequentially instead of in map order.
func proveFromTransform(g *graph.Graph, tr *Transform, sp *obs.Span) (*PlanarProof, error) {
	c := sp.Child(obs.SpanCertObjects)
	slab, _, err := buildPlanarCertSlab(g, tr)
	var objs map[graph.ID]*PlanarCert
	if err == nil {
		objs = certMap(slab)
	}
	c.End()
	if err != nil {
		return nil, err
	}
	c = sp.Child(obs.SpanEncode)
	defer c.End()
	certs := make(map[graph.ID]bits.Certificate, len(slab))
	enc := certEncoder{left: len(slab)}
	for i := range slab {
		cert, err := enc.encode(&slab[i])
		if err != nil {
			return nil, err
		}
		certs[slab[i].Tree.SelfID] = cert
	}
	return &PlanarProof{Transform: tr, Objs: objs, Certs: certs}, nil
}

// BuildPlanarCertObjects computes the structured Theorem 1 certificates
// for a completed transform, together with the holder of every edge
// certificate, by Transform edge id: the endpoint that comes earlier in
// the degeneracy order and stores it. The dynamic subsystem patches
// these objects in place and re-encodes only the nodes whose
// certificates changed.
func BuildPlanarCertObjects(g *graph.Graph, tr *Transform) (map[graph.ID]*PlanarCert, []graph.ID, error) {
	slab, holderIdx, err := buildPlanarCertSlab(g, tr)
	if err != nil {
		return nil, nil, err
	}
	holders := make([]graph.ID, len(holderIdx))
	for e, h := range holderIdx {
		holders[e] = g.IDOf(int(h))
	}
	return certMap(slab), holders, nil
}

// certMap indexes a certificate slab by node identifier.
func certMap(slab []PlanarCert) map[graph.ID]*PlanarCert {
	m := make(map[graph.ID]*PlanarCert, len(slab))
	for i := range slab {
		m[slab[i].Tree.SelfID] = &slab[i]
	}
	return m
}

// buildPlanarCertSlab is BuildPlanarCertObjects returning the
// certificates and the holders by node index. The objects live in three
// slabs (node certificates, edge certificates, and the pointers every
// node's Edges slice is carved from, sized by a holder pre-count), so
// the cost is a fixed handful of allocations. A node's edge
// certificates keep edge-id order, which fixes the encoded bytes.
func buildPlanarCertSlab(g *graph.Graph, tr *Transform) ([]PlanarCert, []int32, error) {
	n := g.N()
	// Degeneracy ordering: assign each edge certificate to the endpoint
	// that comes earlier (which then has at most 5 certified edges).
	order, degeneracy := g.DegeneracyOrder()
	if degeneracy > MaxEdgeCerts {
		return nil, nil, fmt.Errorf("%w: degeneracy %d exceeds 5 — not planar", pls.ErrNotInClass, degeneracy)
	}
	pos := make([]int32, n)
	for i, v := range order {
		pos[v] = int32(i)
	}
	edges := tr.Edges
	holderIdx := make([]int32, len(edges))
	start := make([]int32, n+1) // start[v]: v's first slot in ptrs
	for e, ge := range edges {
		h := ge.U
		if pos[ge.V] < pos[ge.U] {
			h = ge.V
		}
		holderIdx[e] = int32(h)
		start[h+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	certs := make([]PlanarCert, n)
	edgeSlab := make([]EdgeCert, len(edges))
	ptrs := make([]*EdgeCert, len(edges))
	for v := 0; v < n; v++ {
		copies := tr.Copies[v]
		certs[v] = PlanarCert{
			Tree: pls.TreeCert{
				SelfID: g.IDOf(v),
				RootID: g.IDOf(tr.Root),
				N:      uint64(n),
				Dist:   uint64(tr.Depth[v]),
				Parent: g.IDOf(tr.Parent[v]),
				Size:   uint64(copies[len(copies)-1]-copies[0]+2) / 2,
			},
			Edges: ptrs[start[v]:start[v]:start[v+1]],
		}
	}
	iv := tr.Intervals
	for e, ge := range edges {
		ec := &edgeSlab[e]
		if tr.IsTree(e) {
			child, parent := ge.U, ge.V
			if tr.Parent[ge.V] == ge.U {
				child, parent = ge.V, ge.U
			}
			cc := tr.Copies[child]
			cMin, cMax := cc[0], cc[len(cc)-1]
			*ec = EdgeCert{
				IsTree:   true,
				ParentID: g.IDOf(parent),
				ChildID:  g.IDOf(child),
				PA:       cMin - 1,
				CMin:     cMin,
				CMax:     cMax,
				PB:       cMax + 1,
				IPA:      iv[cMin-1],
				ICMin:    iv[cMin],
				ICMax:    iv[cMax],
				IPB:      iv[cMax+1],
			}
		} else {
			rr := tr.CotreeRanks[e]
			*ec = EdgeCert{
				IDU:   g.IDOf(ge.U),
				IDV:   g.IDOf(ge.V),
				RankU: rr[0],
				RankV: rr[1],
				IU:    iv[rr[0]],
				IV:    iv[rr[1]],
			}
		}
		h := &certs[holderIdx[e]]
		h.Edges = append(h.Edges, ec)
	}
	return certs, holderIdx, nil
}

// encodeChunk caps the size of the byte slabs certEncoder carves
// certificate Data from.
const encodeChunk = 64 << 10

// certEncoder encodes certificates through one reused Writer and copies
// each into a byte slab that is never grown: a certificate that does not
// fit the slab's tail opens the next one, sized for the certificates
// still to come at the current one's size plus a quarter, at most
// encodeChunk. So Data slices cost one allocation per slab, small
// networks hold no mostly empty slab, and no superseded backing array
// stays reachable.
type certEncoder struct {
	w    bits.Writer
	slab []byte
	left int // certificates still to encode, this one included
}

func (enc *certEncoder) encode(c *PlanarCert) (bits.Certificate, error) {
	enc.w.Reset()
	if err := c.Encode(&enc.w); err != nil {
		return bits.Certificate{}, err
	}
	raw := enc.w.Raw()
	if len(raw) > cap(enc.slab)-len(enc.slab) {
		size := min(encodeChunk, enc.left*len(raw)*5/4)
		enc.slab = make([]byte, 0, max(size, len(raw)))
	}
	enc.left--
	lo := len(enc.slab)
	enc.slab = append(enc.slab, raw...)
	return bits.Certificate{Data: enc.slab[lo:len(enc.slab):len(enc.slab)], Bits: enc.w.Len()}, nil
}

// EncodePlanarCerts serialises structured planarity certificates.
func EncodePlanarCerts(objs map[graph.ID]*PlanarCert) (map[graph.ID]bits.Certificate, error) {
	out := make(map[graph.ID]bits.Certificate, len(objs))
	enc := certEncoder{left: len(objs)}
	for id, c := range objs {
		cert, err := enc.encode(c)
		if err != nil {
			return nil, err
		}
		out[id] = cert
	}
	return out, nil
}

// Verify implements pls.Scheme: Algorithm 2 of the paper.
func (PlanarScheme) Verify(view dist.View) error {
	_, err := verifyPlanarCore(view)
	return err
}

// planarVerifyState exposes the reconstruction computed by Algorithm 2 so
// that derived schemes (outerplanarity) can add further local checks. It
// aliases the verifier's scratch, so it is only valid until the next
// verification on the same worker — callers needing to retain it must
// copy (see VerifyPlanarNoCounters).
type planarVerifyState struct {
	N2       int
	MyCopies []int
	claims   *rankMap[Interval]
}

// claim returns the interval claimed for rank r, if any.
func (st *planarVerifyState) claim(r int) (Interval, bool) { return st.claims.get(r) }

// childInfo records one child edge certificate during reconstruction.
type childInfo struct {
	id                 graph.ID
	pa, cMin, cMax, pb int
}

// nbrPos returns the view position of the neighbor with the given ID,
// or -1 (replaces the per-node map keyed by neighbor ID; a node looks up
// at most MaxEdgeCerts IDs per verification).
func nbrPos(nbrs []dist.NeighborCert, id graph.ID) int {
	for i := range nbrs {
		if nbrs[i].ID == id {
			return i
		}
	}
	return -1
}

// verifyPlanarCore runs Algorithm 2 and returns the reconstructed local
// state on acceptance.
func verifyPlanarCore(view dist.View) (planarVerifyState, error) {
	return verifyPlanarCoreOpts(view, true)
}

// verifyPlanarCoreOpts optionally skips the deterministic size counters
// (subtree sizes and rank spans); the interactive baseline certifies the
// global rank partition with fingerprints instead.
func verifyPlanarCoreOpts(view dist.View, withSizes bool) (planarVerifyState, error) {
	var none planarVerifyState
	sc := planarScratchFor(view)
	sc.reset(len(view.Neighbors))

	// Phase 0: decode everything.
	sweep := view.Scratch.Sweep()
	selfDec, err := sc.decodeAt(sweep, view.Idx, view.Cert, &sc.self)
	if err != nil {
		return none, err
	}
	self := &selfDec.cert
	myID := view.ID
	if self.Tree.SelfID != myID {
		return none, fmt.Errorf("core: certificate claims ID %d, node is %d", self.Tree.SelfID, myID)
	}
	for i := range view.Neighbors {
		nb := &view.Neighbors[i]
		d, err := sc.decodeAt(sweep, nb.Idx, nb.Cert, &sc.nbrs[i])
		if err != nil {
			return none, err
		}
		if d.cert.Tree.SelfID != nb.ID {
			return none, fmt.Errorf("core: neighbor certificate claims ID %d, neighbor is %d",
				d.cert.Tree.SelfID, nb.ID)
		}
		sc.nbrDecs = append(sc.nbrDecs, d)
		sc.treeNbrs = append(sc.treeNbrs, &d.cert.Tree)
	}

	// Phase 2a (paper order keeps this before the PO simulation): spanning
	// tree checks.
	treeCheck := pls.VerifyTreeCertStructure
	if withSizes {
		treeCheck = pls.VerifyTreeCert
	}
	if err := treeCheck(&self.Tree, myID, view.Degree, sc.treeNbrs); err != nil {
		return none, err
	}
	n := int(self.Tree.N)
	n2 := 2*n - 1

	if n == 1 {
		if view.Degree != 0 {
			return none, fmt.Errorf("core: n=1 claimed with degree %d", view.Degree)
		}
		sc.copies = append(sc.copies, 1)
		sc.claims.put(1, Sentinel(1))
		return planarVerifyState{N2: 1, MyCopies: sc.copies, claims: &sc.claims}, nil
	}

	// Phase 1: recover the edge certificates of all incident edges. Each
	// incident edge {me, y} must have exactly one certificate among those
	// stored at me and at my neighbors (counted per view position in
	// sc.edgeCnt, with the first recovered certificate in sc.edgeOne).
	for _, ec := range self.Edges {
		if !ec.Involves(myID) {
			return none, fmt.Errorf("core: stored certificate for foreign edge")
		}
		other := ec.Other(myID)
		j := nbrPos(view.Neighbors, other)
		if j < 0 {
			return none, fmt.Errorf("core: stored certificate for non-existent edge to %d", other)
		}
		if sc.edgeOne[j] == nil {
			sc.edgeOne[j] = ec
		}
		sc.edgeCnt[j]++
	}
	// A neighbor's certificate claims the neighbor's own ID (phase 0),
	// so its decode summary answers both questions without loading the
	// edge certificates: each involves the neighbor unless foreign, and
	// then involves me iff its other endpoint is me (or the neighbor
	// carries my ID).
	for i := range view.Neighbors {
		nbID := view.Neighbors[i].ID
		d := sc.nbrDecs[i]
		if d.foreign {
			return none, fmt.Errorf("core: neighbor %d stores certificate for a foreign edge", nbID)
		}
		for k, ec := range d.cert.Edges {
			if d.others[k] != myID && nbID != myID {
				continue // about one of the neighbor's other edges
			}
			if sc.edgeOne[i] == nil {
				sc.edgeOne[i] = ec
			}
			sc.edgeCnt[i]++
		}
	}
	for i := range view.Neighbors {
		if sc.edgeCnt[i] != 1 {
			return none, fmt.Errorf("core: edge {%d,%d} has %d certificates, want exactly 1",
				myID, view.Neighbors[i].ID, sc.edgeCnt[i])
		}
	}

	// Phase 2b: classify each incident edge and check consistency with the
	// spanning-tree certificates; collect rank/interval claims.
	claim := func(rank int, iv Interval) error {
		if rank < 1 || rank > n2 {
			return fmt.Errorf("core: rank %d outside [1,%d]", rank, n2)
		}
		if prev, ok := sc.claims.get(rank); ok {
			if prev != iv {
				return fmt.Errorf("core: conflicting intervals %v and %v for rank %d", prev, iv, rank)
			}
			return nil
		}
		sc.claims.put(rank, iv)
		return nil
	}

	var parentEC *EdgeCert
	iAmRoot := self.Tree.Dist == 0

	// Iterate incident edges in view order (not map order) so rejection
	// reasons are deterministic across runs and execution modes.
	for i := range view.Neighbors {
		nbID := view.Neighbors[i].ID
		ec := sc.edgeOne[i]
		nbCert := &sc.nbrDecs[i].cert
		nbIsMyChild := nbCert.Tree.Parent == myID && nbCert.Tree.Dist == self.Tree.Dist+1
		nbIsMyParent := self.Tree.Parent == nbID
		if ec.IsTree {
			switch {
			case nbIsMyChild:
				if ec.ParentID != myID || ec.ChildID != nbID {
					return none, fmt.Errorf("core: tree certificate for child %d has wrong orientation", nbID)
				}
			case nbIsMyParent:
				if ec.ParentID != nbID || ec.ChildID != myID {
					return none, fmt.Errorf("core: tree certificate for parent %d has wrong orientation", nbID)
				}
			default:
				return none, fmt.Errorf("core: tree certificate for non-tree edge {%d,%d}", myID, nbID)
			}
			if ec.PA+1 != ec.CMin || ec.CMax+1 != ec.PB || ec.CMin > ec.CMax {
				return none, fmt.Errorf("core: tree certificate ranks (%d,%d,%d,%d) inconsistent",
					ec.PA, ec.CMin, ec.CMax, ec.PB)
			}
			// Rank span encodes the child's subtree size.
			childSize := nbCert.Tree.Size
			if nbIsMyParent {
				childSize = self.Tree.Size
			}
			if withSizes && uint64(ec.CMax-ec.CMin+1) != 2*childSize-1 {
				return none, fmt.Errorf("core: rank span [%d,%d] does not match subtree size %d",
					ec.CMin, ec.CMax, childSize)
			}
			for _, ri := range [4]struct {
				rank int
				iv   Interval
			}{{ec.PA, ec.IPA}, {ec.CMin, ec.ICMin}, {ec.CMax, ec.ICMax}, {ec.PB, ec.IPB}} {
				if err := claim(ri.rank, ri.iv); err != nil {
					return none, err
				}
			}
			if nbIsMyChild {
				sc.children = append(sc.children, childInfo{
					id: nbID, pa: ec.PA, cMin: ec.CMin, cMax: ec.CMax, pb: ec.PB,
				})
			} else {
				parentEC = ec
			}
		} else {
			if nbIsMyChild || nbIsMyParent {
				return none, fmt.Errorf("core: cotree certificate for tree edge {%d,%d}", myID, nbID)
			}
			wantID := func(id graph.ID) bool { return id == myID || id == nbID }
			if !wantID(ec.IDU) || !wantID(ec.IDV) || ec.IDU == ec.IDV {
				return none, fmt.Errorf("core: cotree certificate IDs (%d,%d) mismatch edge {%d,%d}",
					ec.IDU, ec.IDV, myID, nbID)
			}
			if ec.RankU == ec.RankV {
				return none, fmt.Errorf("core: cotree certificate with equal ranks %d", ec.RankU)
			}
			if err := claim(ec.RankU, ec.IU); err != nil {
				return none, err
			}
			if err := claim(ec.RankV, ec.IV); err != nil {
				return none, err
			}
		}
	}
	if !iAmRoot && parentEC == nil {
		return none, fmt.Errorf("core: no tree certificate for my parent edge")
	}
	if iAmRoot && parentEC != nil {
		return none, fmt.Errorf("core: root has a parent edge certificate")
	}

	// Phase 2c: reconstruct my copies f^{-1}(me) = {i_1 < ... < i_d} and
	// check that f is a DFS mapping (the checks of Section 3.3).
	slices.SortFunc(sc.children, func(a, b childInfo) int { return cmp.Compare(a.pa, b.pa) })
	var first, last int
	if iAmRoot {
		first, last = 1, n2
	} else {
		first, last = parentEC.CMin, parentEC.CMax
	}
	sc.copies = append(sc.copies, first)
	cur := first
	for _, ch := range sc.children {
		if ch.pa != cur {
			return none, fmt.Errorf("core: child %d starts at parent copy %d, want %d", ch.id, ch.pa, cur)
		}
		cur = ch.pb
		sc.copies = append(sc.copies, cur)
	}
	if cur != last {
		return none, fmt.Errorf("core: DFS mapping ends at %d, want %d", cur, last)
	}
	if withSizes && uint64(last-first+1) != 2*self.Tree.Size-1 {
		return none, fmt.Errorf("core: my rank span [%d,%d] does not match my subtree size %d",
			first, last, self.Tree.Size)
	}

	myCopies := sc.copies
	for j, r := range myCopies { // rank -> copy index
		sc.copyIdx.put(r, j)
	}

	// Cotree neighbors per copy, gathered in view order so the simulated
	// PO views (and any rejection they produce) are deterministic.
	sc.cotreeFor(len(myCopies))
	for i := range view.Neighbors {
		nbID := view.Neighbors[i].ID
		ec := sc.edgeOne[i]
		if ec.IsTree {
			continue
		}
		myRank, otherRank := ec.RankU, ec.RankV
		otherIv := ec.IV
		if ec.IDU != myID {
			myRank, otherRank = ec.RankV, ec.RankU
			otherIv = ec.IU
		}
		// (my own interval's consistency is already enforced through claims)
		j, ok := sc.copyIdx.get(myRank)
		if !ok {
			return none, fmt.Errorf("core: cotree edge to %d attached at rank %d, not one of my copies",
				nbID, myRank)
		}
		if _, mine := sc.copyIdx.get(otherRank); mine {
			return none, fmt.Errorf("core: cotree edge to %d attached to two of my copies", nbID)
		}
		sc.cotree[j] = append(sc.cotree[j], PONeighbor{Rank: otherRank, I: otherIv})
	}

	// Phase 3: simulate Algorithm 1 at every copy.
	for j, r := range myCopies {
		iv, ok := sc.claims.get(r)
		if !ok {
			return none, fmt.Errorf("core: no interval claimed for my copy at rank %d", r)
		}
		pv := PONodeView{N: n2, Rank: r, I: iv}
		buf := sc.po.viewNbrs[:0]
		// Left path neighbor (rank r-1).
		if r > 1 {
			var leftRank int
			if j == 0 {
				leftRank = parentEC.PA // first copy: predecessor is a parent copy
			} else {
				leftRank = sc.children[j-1].cMax
			}
			if leftRank != r-1 {
				return none, fmt.Errorf("core: left path neighbor of rank %d is %d", r, leftRank)
			}
			liv, ok := sc.claims.get(leftRank)
			if !ok {
				return none, fmt.Errorf("core: no interval for left path neighbor %d", leftRank)
			}
			buf = append(buf, PONeighbor{Rank: leftRank, I: liv})
		}
		// Right path neighbor (rank r+1).
		if r < n2 {
			var rightRank int
			if j < len(sc.children) {
				rightRank = sc.children[j].cMin
			} else {
				rightRank = parentEC.PB
			}
			if rightRank != r+1 {
				return none, fmt.Errorf("core: right path neighbor of rank %d is %d", r, rightRank)
			}
			riv, ok := sc.claims.get(rightRank)
			if !ok {
				return none, fmt.Errorf("core: no interval for right path neighbor %d", rightRank)
			}
			buf = append(buf, PONeighbor{Rank: rightRank, I: riv})
		}
		buf = append(buf, sc.cotree[j]...)
		sc.po.viewNbrs = buf // keep any growth for the next copy
		pv.Neighbors = buf
		if err := verifyPONode(pv, &sc.po); err != nil {
			return none, fmt.Errorf("copy %d of node %d: %w", r, myID, err)
		}
	}
	return planarVerifyState{N2: n2, MyCopies: myCopies, claims: &sc.claims}, nil
}

var _ pls.Scheme = PlanarScheme{}

// PlanarState is the exported form of the verifier's reconstruction, for
// schemes and protocols layered on Algorithm 2.
type PlanarState struct {
	N2       int
	MyCopies []int
	Claims   map[int]Interval
}

// VerifyPlanarNoCounters runs Algorithm 2 WITHOUT the deterministic
// subtree-size counters (sizes and rank spans). The interactive dMAM
// baseline uses it and certifies the global rank partition with
// randomized fingerprints instead. The returned state is a copy, safe
// to retain after the verifier's scratch is reused.
func VerifyPlanarNoCounters(view dist.View) (*PlanarState, error) {
	st, err := verifyPlanarCoreOpts(view, false)
	if err != nil {
		return nil, err
	}
	out := &PlanarState{
		N2:       st.N2,
		MyCopies: append([]int(nil), st.MyCopies...),
		Claims:   make(map[int]Interval),
	}
	st.claims.each(func(r int, iv Interval) { out.Claims[r] = iv })
	return out, nil
}
