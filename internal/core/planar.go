package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/pls"
)

// MaxEdgeCerts is the cap on edge certificates stored per node. Planar
// graphs are 5-degenerate, so the honest prover never needs more; the
// verifier enforces the cap, which keeps certificates at O(log n) bits.
const MaxEdgeCerts = 5

// EdgeCert is the certificate c(e) of one edge of G (Section 3.3), one
// layout for both kinds of edge. Rank[k] travels with its
// path-outerplanarity interval Iv[k].
//
//   - A tree edge {parent p, child c} (IsTree) is mapped onto the two
//     path edges {PA, CMin} and {CMax, PB} of G_{T,f}: U = p, V = c, and
//     Rank = (PA, CMin, CMax, PB), where PA and PB are the ranks of p's
//     copies around c's subtree and CMin/CMax are c's first/last copies.
//   - A cotree edge {u, v} is mapped onto the single edge
//     {Rank[0], Rank[1]} of G_{T,f}: U = u, V = v, Rank[0] is u's copy
//     and Rank[1] is v's; Rank[2:] and Iv[2:] are unused and zero.
//
// Ranks and interval ends are 32-bit: ProvePlanar refuses graphs whose
// ranks would not fit, and decoding rejects certificates that claim
// larger ones. The struct holds no pointers, so an edge-certificate
// slab is a single noscan allocation. IsTree comes first: with 72-byte
// entries a trailing IsTree always falls on the cache line after U's,
// and a leading one usually on the same line.
type EdgeCert struct {
	IsTree bool
	U, V   graph.ID
	Rank   [4]int32
	Iv     [4]Interval32
}

// Interval32 is an Interval stored with 32-bit ends, the in-memory form
// of an edge certificate's intervals.
type Interval32 struct {
	A, B int32
}

// Narrow returns i with 32-bit ends; callers keep ends within maxRank.
func Narrow(i Interval) Interval32 { return Interval32{A: int32(i.A), B: int32(i.B)} }

// Wide returns i as an Interval.
func (i Interval32) Wide() Interval { return Interval{A: int(i.A), B: int(i.B)} }

// maxRank bounds every rank and interval end an edge certificate can
// hold: ranks live in [0, 2n], so the prover certifies graphs with
// 2n <= maxRank only.
const maxRank = math.MaxInt32

// ranks returns the number of rank slots the certificate uses: four
// for a tree edge, two for a cotree edge.
func (e *EdgeCert) ranks() int {
	if e.IsTree {
		return 4
	}
	return 2
}

// Involves reports whether id is an endpoint of the certified edge.
func (e *EdgeCert) Involves(id graph.ID) bool { return e.U == id || e.V == id }

// Other returns the endpoint different from id.
func (e *EdgeCert) Other(id graph.ID) graph.ID {
	if e.U == id {
		return e.V
	}
	return e.U
}

// encode writes the certificate: the tree bit, the two endpoint
// identifiers, then the ranks and each interval's two ends, every rank
// in rankWidth bits.
func (e *EdgeCert) encode(w *bits.Writer, rankWidth int) error {
	w.WriteBit(e.IsTree)
	if err := w.WriteVar(uint64(e.U)); err != nil {
		return err
	}
	if err := w.WriteVar(uint64(e.V)); err != nil {
		return err
	}
	k := e.ranks()
	for _, r := range e.Rank[:k] {
		if err := w.WriteUint(uint64(r), rankWidth); err != nil {
			return err
		}
	}
	for _, iv := range e.Iv[:k] {
		if err := w.WriteUint(uint64(iv.A), rankWidth); err != nil {
			return err
		}
		if err := w.WriteUint(uint64(iv.B), rankWidth); err != nil {
			return err
		}
	}
	return nil
}

// decodeEdgeCertInto reads one edge certificate from r into e, which
// may be a fresh object or a slab entry about to be reused. A rank or
// interval end above maxRank is a decode error: no honest certificate
// carries one.
func decodeEdgeCertInto(r *bits.Reader, rankWidth int, e *EdgeCert) error {
	isTree, err := r.ReadBit()
	if err != nil {
		return err
	}
	*e = EdgeCert{IsTree: isTree}
	u, err := r.ReadVar()
	if err != nil {
		return err
	}
	v, err := r.ReadVar()
	if err != nil {
		return err
	}
	e.U, e.V = graph.ID(u), graph.ID(v)
	k := e.ranks()
	var hi uint64 // the largest rank or interval end read
	for i := range e.Rank[:k] {
		x, err := r.ReadUint(rankWidth)
		if err != nil {
			return err
		}
		e.Rank[i], hi = int32(x), max(hi, x)
	}
	for i := range e.Iv[:k] {
		a, err := r.ReadUint(rankWidth)
		if err != nil {
			return err
		}
		b, err := r.ReadUint(rankWidth)
		if err != nil {
			return err
		}
		e.Iv[i], hi = Interval32{A: int32(a), B: int32(b)}, max(hi, a, b)
	}
	if hi > maxRank {
		return fmt.Errorf("core: rank %d exceeds %d", hi, maxRank)
	}
	return nil
}

// PlanarCert is the full node certificate of Theorem 1: the spanning-tree
// sub-proof plus at most MaxEdgeCerts edge certificates assigned to this
// node through the 5-degeneracy ordering.
type PlanarCert struct {
	Tree  pls.TreeCert
	Edges []EdgeCert
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
	for k := range c.Edges {
		if err := c.Edges[k].encode(w, rw); err != nil {
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

// DecodePlanarCerts decodes the certificates of the first n nodes of g,
// by node index. The edge certificates are carved out of a few shared
// chunks, each node's capped at its length, so appending to one node's
// reallocates that node's alone.
func DecodePlanarCerts(g *graph.Graph, n int, certs map[graph.ID]bits.Certificate) ([]PlanarCert, error) {
	objs := make([]PlanarCert, n)
	var arena edgeArena
	var r bits.Reader
	for v := range objs {
		id := g.IDOf(v)
		certs[id].ResetReader(&r)
		if err := decodePlanarCertInto(&r, &objs[v], &arena); err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
	}
	return objs, nil
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
	if arena == nil {
		c.Edges = make([]EdgeCert, cnt)
	} else {
		c.Edges = arena.take(int(cnt))
	}
	rw := rankWidth(c.Tree.N)
	for k := range c.Edges {
		if err := decodeEdgeCertInto(r, rw, &c.Edges[k]); err != nil {
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
	_, certs, err := ProvePlanar(g, nil)
	return certs, err
}

// ProvePlanar runs the planarity prover and returns the certificate
// objects, by node index, and their encoding. It records its steps —
// the LR test, the Euler audit, the transform, the certificate objects
// and the encoding — as children of sp, in that order (nil records
// nothing). Graphs outside the class fail with pls.ErrNotInClass.
func ProvePlanar(g *graph.Graph, sp *obs.Span) ([]PlanarCert, map[graph.ID]bits.Certificate, error) {
	objs, certs, _, err := ProvePlanarFrom(g, nil, sp)
	return objs, certs, err
}

// ProvePlanarFrom is ProvePlanar starting from rot, a rotation system
// of g, instead of the one the LR test picks. The steps after the LR
// test are unchanged: rot must pass the Euler audit and yield a
// path-outerplanar transform. If it fails either, or is nil, the LR test
// runs after all; kept reports whether the certificates rest on rot.
func ProvePlanarFrom(g *graph.Graph, rot *embedding.Rotation, sp *obs.Span) (objs []PlanarCert, certs map[graph.ID]bits.Certificate, kept bool, err error) {
	if g.N() == 0 {
		return nil, nil, false, fmt.Errorf("%w: empty graph", pls.ErrNotInClass)
	}
	if !g.Connected() {
		return nil, nil, false, fmt.Errorf("%w: disconnected graph", pls.ErrNotInClass)
	}
	var tr *Transform
	if rot != nil {
		tr, err = auditedTransform(g, rot, sp)
		kept = err == nil
	}
	if !kept {
		if tr, err = transformOf(g, sp); err != nil {
			return nil, nil, false, fmt.Errorf("%w: %v", pls.ErrNotInClass, err)
		}
	}
	objs, certs, err = proveFromTransform(g, tr, sp)
	return objs, certs, kept, err
}

// proveFromTransform builds the Theorem 1 certificates from a completed
// transform (shared by the planarity and outerplanarity provers). It
// encodes straight from the object slab, in vertex order, so the
// encoder walks the slabs sequentially instead of in map order.
func proveFromTransform(g *graph.Graph, tr *Transform, sp *obs.Span) ([]PlanarCert, map[graph.ID]bits.Certificate, error) {
	c := sp.Child(obs.SpanCertObjects)
	slab, _, err := buildPlanarCertSlab(g, tr)
	c.End()
	if err != nil {
		return nil, nil, err
	}
	c = sp.Child(obs.SpanEncode)
	defer c.End()
	certs := make(map[graph.ID]bits.Certificate, len(slab))
	enc := certEncoder{left: len(slab)}
	for i := range slab {
		cert, err := enc.encode(&slab[i])
		if err != nil {
			return nil, nil, err
		}
		certs[slab[i].Tree.SelfID] = cert
	}
	return slab, certs, nil
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

// checkRankBound refuses a network whose ranks, which live in [0, 2n],
// would not fit an EdgeCert's 32-bit fields.
func checkRankBound(n int) error {
	if 2*n > maxRank {
		return fmt.Errorf("core: n=%d is too large to certify: ranks up to 2n exceed %d", n, maxRank)
	}
	return nil
}

// buildPlanarCertSlab is BuildPlanarCertObjects returning the
// certificates and the holders by node index. The objects live in two
// slabs: node certificates, and edge certificates grouped by holder
// (sized by a holder pre-count), from which every node's Edges slice
// is carved. So the cost is a fixed handful of allocations. A node's
// edge certificates keep edge-id order, which fixes the encoded bytes.
func buildPlanarCertSlab(g *graph.Graph, tr *Transform) ([]PlanarCert, []int32, error) {
	n := g.N()
	if err := checkRankBound(n); err != nil {
		return nil, nil, err
	}
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
	start := make([]int32, n+1) // start[v]: v's first slot in edgeSlab
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
			Edges: edgeSlab[start[v]:start[v]:start[v+1]],
		}
	}
	iv := tr.Intervals
	for e, ge := range edges {
		h := &certs[holderIdx[e]]
		h.Edges = h.Edges[:len(h.Edges)+1]
		ec := &h.Edges[len(h.Edges)-1]
		if tr.IsTree(e) {
			child, parent := ge.U, ge.V
			if tr.Parent[ge.V] == ge.U {
				child, parent = ge.V, ge.U
			}
			cc := tr.Copies[child]
			cMin, cMax := cc[0], cc[len(cc)-1]
			*ec = EdgeCert{U: g.IDOf(parent), V: g.IDOf(child), IsTree: true}
			for k, r := range [4]int{cMin - 1, cMin, cMax, cMax + 1} {
				ec.Rank[k], ec.Iv[k] = int32(r), Narrow(iv[r])
			}
		} else {
			rr := tr.CotreeRanks[e]
			*ec = EdgeCert{U: g.IDOf(ge.U), V: g.IDOf(ge.V)}
			for k, r := range rr {
				ec.Rank[k], ec.Iv[k] = int32(r), Narrow(iv[r])
			}
		}
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
	selfDec, err := sc.decodeAt(view.Scratch, view.Idx, view.Cert, &sc.self)
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
		d, err := sc.decodeAt(view.Scratch, nb.Idx, nb.Cert, &sc.nbrs[i])
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
	for k := range self.Edges {
		ec := &self.Edges[k]
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
		for k := range d.cert.Edges {
			if d.others[k] != myID && nbID != myID {
				continue // about one of the neighbor's other edges
			}
			if sc.edgeOne[i] == nil {
				sc.edgeOne[i] = &d.cert.Edges[k]
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
				if ec.U != myID || ec.V != nbID {
					return none, fmt.Errorf("core: tree certificate for child %d has wrong orientation", nbID)
				}
			case nbIsMyParent:
				if ec.U != nbID || ec.V != myID {
					return none, fmt.Errorf("core: tree certificate for parent %d has wrong orientation", nbID)
				}
			default:
				return none, fmt.Errorf("core: tree certificate for non-tree edge {%d,%d}", myID, nbID)
			}
			pa, cMin, cMax, pb := int(ec.Rank[0]), int(ec.Rank[1]), int(ec.Rank[2]), int(ec.Rank[3])
			if pa+1 != cMin || cMax+1 != pb || cMin > cMax {
				return none, fmt.Errorf("core: tree certificate ranks (%d,%d,%d,%d) inconsistent",
					pa, cMin, cMax, pb)
			}
			// Rank span encodes the child's subtree size.
			childSize := nbCert.Tree.Size
			if nbIsMyParent {
				childSize = self.Tree.Size
			}
			if withSizes && uint64(cMax-cMin+1) != 2*childSize-1 {
				return none, fmt.Errorf("core: rank span [%d,%d] does not match subtree size %d",
					cMin, cMax, childSize)
			}
			for k, r := range ec.Rank {
				if err := claim(int(r), ec.Iv[k].Wide()); err != nil {
					return none, err
				}
			}
			if nbIsMyChild {
				sc.children = append(sc.children, childInfo{
					id: nbID, pa: pa, cMin: cMin, cMax: cMax, pb: pb,
				})
			} else {
				parentEC = ec
			}
		} else {
			if nbIsMyChild || nbIsMyParent {
				return none, fmt.Errorf("core: cotree certificate for tree edge {%d,%d}", myID, nbID)
			}
			wantID := func(id graph.ID) bool { return id == myID || id == nbID }
			if !wantID(ec.U) || !wantID(ec.V) || ec.U == ec.V {
				return none, fmt.Errorf("core: cotree certificate IDs (%d,%d) mismatch edge {%d,%d}",
					ec.U, ec.V, myID, nbID)
			}
			if ec.Rank[0] == ec.Rank[1] {
				return none, fmt.Errorf("core: cotree certificate with equal ranks %d", ec.Rank[0])
			}
			for k, r := range ec.Rank[:2] {
				if err := claim(int(r), ec.Iv[k].Wide()); err != nil {
					return none, err
				}
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
		first, last = int(parentEC.Rank[1]), int(parentEC.Rank[2])
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
		mine := 0
		if ec.U != myID {
			mine = 1
		}
		myRank, otherRank := int(ec.Rank[mine]), int(ec.Rank[1-mine])
		otherIv := ec.Iv[1-mine].Wide()
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
				leftRank = int(parentEC.Rank[0]) // first copy: predecessor is a parent copy
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
				rightRank = int(parentEC.Rank[3])
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
