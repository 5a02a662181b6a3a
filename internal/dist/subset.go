package dist

import (
	"sort"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// RunPLSSubset executes one verification round restricted to the node
// indices in idxs: only those nodes run verify, each on its full 1-round
// view. Views are assembled directly from the live graph — not from the
// Engine's cached CSR snapshot — so the call stays correct after graph
// mutations and its cost is proportional to the subset's total degree,
// not to n. This is the frontier-verification primitive of the dynamic
// certification subsystem (internal/dynamic): when an update batch
// changes certificates only at a set D of nodes and edges only inside D,
// every node outside D and its 1-hop neighborhood sees a bit-identical
// view, so re-running the verifier on that frontier decides global
// acceptance.
//
// Duplicate and out-of-range indices are dropped; the subset is verified
// in ascending index order so sequential and parallel runs produce
// identical Outcomes (FailFast may, as in RunPLS, omit later
// rejections). The Outcome's accounting is restricted to the subset:
// N counts the verified nodes, certificate statistics cover their own
// certificates, and Messages counts the certificates they ship to their
// neighbors in the simulated round.
func (e *Engine) RunPLSSubset(certs map[graph.ID]bits.Certificate, verify func(View) error, idxs []int) *Outcome {
	n := e.g.N()
	sub := make([]int, 0, len(idxs))
	seen := make(map[int]bool, len(idxs))
	for _, u := range idxs {
		if u < 0 || u >= n || seen[u] {
			continue
		}
		seen[u] = true
		sub = append(sub, u)
	}
	sort.Ints(sub)

	sweep := e.span.Child(obs.SpanSweep)
	sweep.SetStr("mode", "subset")
	sweep.SetInt("frontier", int64(len(sub)))

	out := &Outcome{N: len(sub)}
	for _, u := range sub {
		c := certs[e.g.IDOf(u)]
		out.TotalCertBits += c.Bits
		if c.Bits > out.MaxCertBit {
			out.MaxCertBit = c.Bits
		}
		if deg := e.g.Degree(u); deg > 0 {
			out.Messages += deg
			if c.Bits > out.MaxMsgBit {
				out.MaxMsgBit = c.Bits
			}
		}
	}

	errs := make([]error, len(sub))
	if e.parallel(len(sub)) {
		e.subsetParallel(sub, certs, verify, errs, sweep)
	} else {
		e.subsetSequential(sub, certs, verify, errs)
	}

	for i, u := range sub {
		if err := errs[i]; err != nil {
			id := e.g.IDOf(u)
			out.Rejecting = append(out.Rejecting, id)
			if out.Reasons == nil {
				out.Reasons = make(map[graph.ID]string)
			}
			out.Reasons[id] = err.Error()
		}
	}
	sweep.SetInt("cert_bits", int64(out.TotalCertBits))
	sweep.SetInt("max_cert_bit", int64(out.MaxCertBit))
	sweep.SetInt("messages", int64(out.Messages))
	sweep.SetInt("rejecting", int64(len(out.Rejecting)))
	sweep.End()
	return out
}

// subsetView assembles node u's 1-round view from the live graph. The
// neighbor slice is carved out of the worker's scratch, so a frontier
// sweep's view assembly allocates nothing in steady state.
func (e *Engine) subsetView(u int, certs map[graph.ID]bits.Certificate, sc *Scratch) View {
	nbrs := e.g.Neighbors(u)
	ncs := sc.neighbors(len(nbrs))
	for i, v := range nbrs {
		id := e.g.IDOf(v)
		ncs[i] = NeighborCert{ID: id, Cert: certs[id], Idx: int32(v)}
	}
	return View{
		ID:        e.g.IDOf(u),
		Idx:       int32(u),
		Degree:    len(nbrs),
		Cert:      certs[e.g.IDOf(u)],
		Neighbors: ncs,
		Scratch:   sc,
	}
}

func (e *Engine) subsetSequential(sub []int, certs map[graph.ID]bits.Certificate, verify func(View) error, errs []error) {
	pool := e.scratchPool()
	sc := pool.get(sweeps.Add(1), e.g.N())
	defer pool.put(sc)
	for i, u := range sub {
		if err := verifyView(e.g.IDOf(u), e.subsetView(u, certs, sc), verify); err != nil {
			errs[i] = err
			if e.failFast {
				return
			}
		}
	}
}

func (e *Engine) subsetParallel(sub []int, certs map[graph.ID]bits.Certificate, verify func(View) error, errs []error, sweep *obs.Span) {
	// Same budget discipline as verifyParallel (via fanOut): worker 0
	// always runs, the rest each need a free slot from the shared budget
	// (see Limit) so frontier sweeps across many sessions stay bounded.
	shard := e.shardSize
	nshards := (len(sub) + shard - 1) / shard
	e.fanOut(nshards, sweep, func(s int, sc *Scratch) bool {
		lo := s * shard
		hi := lo + shard
		if hi > len(sub) {
			hi = len(sub)
		}
		for i := lo; i < hi; i++ {
			u := sub[i]
			if err := verifyView(e.g.IDOf(u), e.subsetView(u, certs, sc), verify); err != nil {
				errs[i] = err
				if e.failFast {
					return true
				}
			}
		}
		return false
	})
}
