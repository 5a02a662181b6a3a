package dynamic

import (
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// fingerprint is an order-independent 128-bit hash of the labelled
// topology (node identifiers plus edges over identifiers). Updates
// toggle their element's hash in and out by XOR, so maintaining it
// costs O(1) per update and an oscillating workload returns to a
// previously seen fingerprint bit-exactly.
type fingerprint struct {
	lo, hi uint64
}

// mix64 is the splitmix64 finaliser, a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nodeHash(id graph.ID) fingerprint {
	h := mix64(uint64(id) + 0x9e3779b97f4a7c15)
	return fingerprint{lo: h, hi: mix64(h ^ 0xda942042e4dd58b5)}
}

func edgeHash(a, b graph.ID) fingerprint {
	if a > b {
		a, b = b, a
	}
	h := mix64(mix64(uint64(a)+0x8cb92ba72f3d8dd7) + 3*mix64(uint64(b)+0x5851f42d4c957f2d))
	return fingerprint{lo: h, hi: mix64(h ^ 0x2545f4914f6cdd1d)}
}

func (f fingerprint) xor(o fingerprint) fingerprint {
	return fingerprint{lo: f.lo ^ o.lo, hi: f.hi ^ o.hi}
}

// apply toggles the net batch into the fingerprint (XOR is its own
// inverse, so additions and removals share the rule).
func (f fingerprint) apply(nb *netBatch) fingerprint {
	for _, id := range nb.addedNodes {
		f = f.xor(nodeHash(id))
	}
	for _, p := range nb.addedEdges {
		f = f.xor(edgeHash(p[0], p[1]))
	}
	for _, p := range nb.removedEdges {
		f = f.xor(edgeHash(p[0], p[1]))
	}
	return f
}

// fingerprintOf hashes a graph from scratch (session construction).
func fingerprintOf(g *graph.Graph) fingerprint {
	var f fingerprint
	for _, id := range g.IDs() {
		f = f.xor(nodeHash(id))
	}
	for _, e := range g.Edges() {
		f = f.xor(edgeHash(g.IDOf(e.U), g.IDOf(e.V)))
	}
	return f
}

// FingerprintOf returns the 128-bit order-independent topology
// fingerprint of g — the same value a live session maintains
// incrementally (see Session.Fingerprint). The persistence layer uses
// it to cross-check a restored network against its snapshot key.
func FingerprintOf(g *graph.Graph) (hi, lo uint64) {
	f := fingerprintOf(g)
	return f.hi, f.lo
}

// cacheKey identifies a certified topology: the fingerprint plus the
// exact node and edge counts (a cheap second factor against collisions).
type cacheKey struct {
	fp   fingerprint
	n, m int
}

// cacheEntry is one certified assignment. The certificate slice is
// shared with the session copy-on-write; entries are immutable once
// stored. A node index names the same node in every entry with the
// same n, since the graph never removes a node.
type cacheEntry struct {
	scheme pls.Scheme
	certs  []bits.Certificate // by node index
	gen    uint64             // generation stamp at store time
}

// certCache is a small FIFO-evicting map of certified topologies.
type certCache struct {
	cap   int
	m     map[cacheKey]*cacheEntry
	order []cacheKey
}

func newCertCache(capacity int) *certCache {
	return &certCache{cap: capacity, m: make(map[cacheKey]*cacheEntry, capacity)}
}

func (c *certCache) lookup(k cacheKey) *cacheEntry {
	if c.cap <= 0 {
		return nil
	}
	return c.m[k]
}

func (c *certCache) store(k cacheKey, e *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	if _, ok := c.m[k]; ok {
		c.m[k] = e
		return
	}
	c.m[k] = e
	c.order = append(c.order, k)
	for len(c.order) > c.cap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *certCache) evict(k cacheKey) {
	delete(c.m, k)
	for i, ok := range c.order {
		if ok == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}
