package core

import (
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// This file holds the per-worker decode scratch of the scheme verifiers.
// The verifiers run once per node per sweep, and profiling showed the
// sweep cost was dominated by the fresh maps, slices and decoded
// certificate objects each call built: ~96 allocations and ~7.6KB of
// heap per node, enough to make whole-network throughput *fall* with
// scale. Every scheme therefore keeps its decode state in a scratch
// struct stored in the worker's dist.Scratch slot (see dist.View):
// certificate slabs instead of per-node objects, generation-stamped
// rank tables instead of per-node maps, and one reusable bits.Reader.
//
// Ownership contract (also documented in ARCHITECTURE.md):
//   - the engine owns the dist.Scratch and hands it to one worker at a
//     time; schemes own the typed state inside their slot;
//   - everything in the scratch is garbage on entry — reset is the
//     scheme's first step, and nothing decoded for one node may
//     influence another node's verdict (the decode-parity suite and
//     FuzzScratchReuse enforce this), with one exception: the pure
//     decode of a certificate may be shared, keyed by (sweep id, node
//     index) — the planar memo (planarMemo) does this, so a sweep
//     decodes each certificate once instead of deg+1 times. Nothing
//     else may be shared (TestSweepMemoNotStale and FuzzSweepMemo
//     enforce both halves);
//   - views with a nil Scratch (direct Verify calls, the interactive
//     protocols) fall back to a fresh scratch per call, which is
//     exactly the old fresh-allocation behavior — both paths run the
//     same code, so pooled and fresh decisions cannot drift apart.

// rankMap is a generation-stamped open-addressing hash table keyed by
// ranks (small ints, but adversarial certificates can claim ranks up to
// 2^63, so a dense array indexed by rank is not an option). Bumping the
// generation invalidates every entry in O(1), which is what makes
// per-node reuse free: no clearing, no allocation, stable backing
// arrays that grow to the working-set size and stay there.
type rankMap[V any] struct {
	keys []int64
	vals []V
	gens []uint32
	gen  uint32
	live int
}

// reset invalidates all entries (O(1) except on generation wraparound).
func (m *rankMap[V]) reset() {
	if len(m.keys) == 0 {
		m.rehash(16)
		m.gen = 1
		return
	}
	m.live = 0
	m.gen++
	if m.gen == 0 { // 2^32 resets: stamps are ambiguous, wipe them
		clear(m.gens)
		m.gen = 1
	}
}

// slot returns the index holding key, or the free slot where it would
// be inserted (linear probing, no deletions).
func (m *rankMap[V]) slot(key int) int {
	mask := len(m.keys) - 1
	i := int((uint64(key)*0x9E3779B97F4A7C15)>>33) & mask
	for m.gens[i] == m.gen && m.keys[i] != int64(key) {
		i = (i + 1) & mask
	}
	return i
}

// get returns the value stored under key this generation.
func (m *rankMap[V]) get(key int) (V, bool) {
	i := m.slot(key)
	if m.gens[i] == m.gen {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// put inserts or overwrites key.
func (m *rankMap[V]) put(key int, val V) {
	i := m.slot(key)
	if m.gens[i] != m.gen {
		if 2*(m.live+1) > len(m.keys) {
			m.rehash(2 * len(m.keys))
			i = m.slot(key)
		}
		m.gens[i] = m.gen
		m.keys[i] = int64(key)
		m.live++
	}
	m.vals[i] = val
}

// each visits every live entry (iteration order is unspecified, exactly
// like the map it replaces).
func (m *rankMap[V]) each(f func(key int, val V)) {
	for i, g := range m.gens {
		if g == m.gen {
			f(int(m.keys[i]), m.vals[i])
		}
	}
}

// rehash moves live entries into fresh power-of-two arrays.
func (m *rankMap[V]) rehash(size int) {
	oldKeys, oldVals, oldGens, oldGen := m.keys, m.vals, m.gens, m.gen
	m.keys = make([]int64, size)
	m.vals = make([]V, size)
	m.gens = make([]uint32, size)
	if m.gen == 0 {
		m.gen = 1
	}
	for i, g := range oldGens {
		if g == oldGen {
			j := m.slot(int(oldKeys[i]))
			m.gens[j] = m.gen
			m.keys[j] = oldKeys[i]
			m.vals[j] = oldVals[i]
		}
	}
}

// grow2 returns s resized to length n, preserving existing entries (and
// therefore the capacity of any slices they hold) across growth.
func grow2[T any](s []T, n int) []T {
	if cap(s) < n {
		nw := make([]T, n)
		copy(nw, s[:cap(s)])
		return nw
	}
	return s[:n]
}

// planarScratch is the decode state of the planarity verifier
// (Algorithm 2), shared with the outerplanarity scheme which layers one
// extra check on the same reconstruction.
type planarScratch struct {
	r        bits.Reader
	self     planarDecode
	nbrs     []planarDecode  // fresh decodes of neighbor certificates, by view position
	nbrDecs  []*planarDecode // the neighbor decodes in use, by view position
	treeNbrs []*pls.TreeCert // their spanning-tree sub-proofs
	slab     edgeArena       // edge certificates of this view's fresh decodes
	edgeOne  []*EdgeCert     // per neighbor position: the first certificate recovered for edge {me, nb}
	edgeCnt  []int32         // per neighbor position: how many were recovered
	claims   rankMap[Interval]
	copyIdx  rankMap[int]
	children []childInfo
	copies   []int          // my reconstructed copies f^{-1}(me)
	cotree   [][]PONeighbor // cotree attachments per copy index
	po       poNodeScratch
	memo     planarMemo
}

type planarScratchKey struct{}

// planarScratchFor returns the worker's planar scratch, creating it on
// first use; a nil view.Scratch yields a fresh one per call.
func planarScratchFor(view dist.View) *planarScratch {
	if v := view.Scratch.Slot(planarScratchKey{}); v != nil {
		return v.(*planarScratch)
	}
	sc := &planarScratch{}
	view.Scratch.SetSlot(planarScratchKey{}, sc)
	return sc
}

// reset prepares the scratch for a view with deg neighbors. Every
// per-view region is either truncated to zero length or fully
// overwritten before use, so nothing from the previous node can leak
// into this one; the sweep memo is keyed by sweep id and left alone.
func (sc *planarScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg)
	sc.nbrDecs = sc.nbrDecs[:0]
	sc.treeNbrs = sc.treeNbrs[:0]
	sc.slab.rewind()
	sc.edgeOne = grow2(sc.edgeOne, deg)
	sc.edgeCnt = grow2(sc.edgeCnt, deg)
	for i := 0; i < deg; i++ {
		sc.edgeOne[i] = nil
		sc.edgeCnt[i] = 0
	}
	sc.claims.reset()
	sc.copyIdx.reset()
	sc.children = sc.children[:0]
	sc.copies = sc.copies[:0]
}

// planarDecode is one decoded planar certificate together with what
// every viewer derives from its edge list alone, so that a node scans
// a neighbor's stored edge certificates without loading them: whether
// one of them misses the holder, and each one's other endpoint.
type planarDecode struct {
	cert    PlanarCert
	foreign bool                   // some stored certificate does not involve the holder
	others  [MaxEdgeCerts]graph.ID // per stored certificate: the endpoint that is not the holder
}

// decodeHook, when non-nil, runs at every planarDecode.decode; tests
// install it to count decodes.
var decodeHook func()

// decode reads the certificate from r into d, with edge certificates
// from arena (fresh ones when arena is nil), and derives the summary.
func (d *planarDecode) decode(r *bits.Reader, arena *edgeArena) error {
	if decodeHook != nil {
		decodeHook()
	}
	if err := decodePlanarCertInto(r, &d.cert, arena); err != nil {
		return err
	}
	holder := d.cert.Tree.SelfID
	d.foreign = false
	for k := range d.cert.Edges {
		ec := &d.cert.Edges[k]
		d.foreign = d.foreign || !ec.Involves(holder)
		d.others[k] = ec.Other(holder)
	}
	return nil
}

// decodeAt returns the decode of cert, the certificate of the node with
// index idx, in the view being verified. Inside an engine sweep
// (sweep != 0) the decode is memoized by (sweep, idx): the first view
// that shows the node decodes it, and every later view of the sweep
// gets the same decode, or the same decode error, without reading a
// bit. Outside a sweep it decodes into into, with edge certificates
// from the per-view slab. Both paths run planarDecode.decode, and
// decoding is a pure function of the certificate's bits, so they
// cannot disagree.
func (sc *planarScratch) decodeAt(sweep uint64, idx int32, cert bits.Certificate, into *planarDecode) (*planarDecode, error) {
	if sweep == 0 {
		cert.ResetReader(&sc.r)
		return into, into.decode(&sc.r, &sc.slab)
	}
	m := &sc.memo
	if m.sweep != sweep {
		m.begin(sweep)
	}
	if int(idx) >= len(m.entries) {
		// Growing copies the entries; a decode handed out before keeps
		// its old copy alive, and stamped decodes never change.
		m.entries = grow2(m.entries, max(int(idx)+1, 2*len(m.entries)))
	}
	e := &m.entries[idx]
	switch e.stamp {
	case sweep << 1:
		return &e.dec, nil
	case sweep<<1 | 1:
		return nil, m.errs[idx]
	}
	cert.ResetReader(&sc.r)
	err := e.dec.decode(&sc.r, &m.edges)
	// Stamp only once the decode has returned: a decode that panics
	// leaves the entry unstamped, and the next viewer decodes afresh.
	if err != nil {
		if m.errs == nil {
			m.errs = make(map[int32]error)
		}
		m.errs[idx] = err
		e.stamp = sweep<<1 | 1
		return nil, err
	}
	e.stamp = sweep << 1
	return &e.dec, nil
}

// planarMemo is the one piece of planar decode state that outlives a
// node: the decoded certificates of the current sweep, by node index.
// It lives in the worker's pooled scratch, so a sweep's decodes are
// shared by the views one worker verifies and dropped with the pool.
type planarMemo struct {
	sweep   uint64          // the sweep the entries' edge certificates belong to
	entries []memoEntry     // by node index
	errs    map[int32]error // decode errors of this sweep, by node index
	edges   edgeArena       // edge certificates of this sweep's decodes
}

// memoEntry is one node's memoized decode. stamp is sweep<<1 for a
// decode of that sweep and sweep<<1|1 for a decode that failed; sweep
// ids start at 1, so a zero stamp matches no sweep.
type memoEntry struct {
	stamp uint64
	dec   planarDecode
}

// begin starts the memo for a new sweep: entries of older sweeps stop
// matching by their stamps, and the edge arena is reused from the top.
func (m *planarMemo) begin(sweep uint64) {
	m.sweep = sweep
	m.edges.rewind()
	clear(m.errs)
}

// edgeArena hands out edge certificates in chunks that are never
// reallocated, so every certificate carved since the last rewind stays
// where it is, and a decoded certificate's Edges slice is carved, not
// built. Chunks double from 16 to 512 slots: a one-view scratch stays
// small, and a sweep memo's chunks are each allocated once per worker.
type edgeArena struct {
	chunks [][]EdgeCert
	cur    int // chunk being carved
	used   int // slots carved from it
}

// rewind makes the whole arena available again.
func (a *edgeArena) rewind() { a.cur, a.used = 0, 0 }

// take returns k consecutive slots; their contents are stale and must
// be overwritten.
func (a *edgeArena) take(k int) []EdgeCert {
	if a.cur < len(a.chunks) && a.used+k > len(a.chunks[a.cur]) {
		a.cur, a.used = a.cur+1, 0
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]EdgeCert, max(16<<min(a.cur, 5), k)))
	}
	lo := a.used
	a.used += k
	return a.chunks[a.cur][lo:a.used:a.used]
}

// cotreeFor sizes the per-copy cotree attachment lists, keeping the
// inner slices' capacity across nodes.
func (sc *planarScratch) cotreeFor(copies int) {
	sc.cotree = grow2(sc.cotree, copies)
	for j := range sc.cotree {
		sc.cotree[j] = sc.cotree[j][:0]
	}
}

// poNodeScratch is the scratch of the Algorithm 1 simulation at one
// path-outerplanar vertex: the planarity verifier runs it once per
// copy (2n-1 times across a sweep), the standalone PO scheme once per
// node.
type poNodeScratch struct {
	viewNbrs    []PONeighbor // caller-assembled neighbor list
	left, right []PONeighbor
	seen        rankMap[struct{}]
}

// npScratch is the decode state of the non-planarity verifier.
type npScratch struct {
	r        bits.Reader
	self     NonPlanarCert
	nbrs     []NonPlanarCert
	treeNbrs []*pls.TreeCert
}

type npScratchKey struct{}

func npScratchFor(view dist.View) *npScratch {
	if v := view.Scratch.Slot(npScratchKey{}); v != nil {
		return v.(*npScratch)
	}
	sc := &npScratch{}
	view.Scratch.SetSlot(npScratchKey{}, sc)
	return sc
}

func (sc *npScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg) // grow2 keeps each entry's BranchIDs backing
	sc.treeNbrs = sc.treeNbrs[:0]
}

// byID returns the decoded certificate of the neighbor with the given
// identifier, or nil (replaces the per-node map keyed by neighbor ID;
// callers look up at most a handful of IDs per node).
func (sc *npScratch) byID(view dist.View, id graph.ID) *NonPlanarCert {
	for i := range view.Neighbors {
		if view.Neighbors[i].ID == id {
			return &sc.nbrs[i]
		}
	}
	return nil
}

// poScratch is the decode state of the standalone path-outerplanarity
// verifier (Lemma 2).
type poScratch struct {
	r        bits.Reader
	self     POCert
	nbrs     []POCert
	treeNbrs []*pls.TreeCert
	po       poNodeScratch
}

type poScratchKey struct{}

func poScratchFor(view dist.View) *poScratch {
	if v := view.Scratch.Slot(poScratchKey{}); v != nil {
		return v.(*poScratch)
	}
	sc := &poScratch{}
	view.Scratch.SetSlot(poScratchKey{}, sc)
	return sc
}

func (sc *poScratch) reset(deg int) {
	sc.nbrs = grow2(sc.nbrs, deg)
	sc.treeNbrs = sc.treeNbrs[:0]
	sc.po.viewNbrs = sc.po.viewNbrs[:0]
}
