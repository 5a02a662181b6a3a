package dist

import (
	"slices"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// RunPLS executes one verification round over every node with an
// assignment keyed by identifier. It is RunPLSAll over the assignment
// laid out by node index (ByIndex): nodes missing from certs see a
// zero-length certificate.
func (e *Engine) RunPLS(certs map[graph.ID]bits.Certificate, verify func(View) error) *Outcome {
	return e.RunPLSAll(ByIndex(e.g, certs), verify)
}

// RunPLSAll executes one verification round: every node runs verify on
// its 1-round view, where certs[v] is the certificate of node index v
// and nodes past the end of certs see a zero-length certificate. A
// panic inside verify is contained to the panicking node and reported
// as that node's rejection.
func (e *Engine) RunPLSAll(certs []bits.Certificate, verify func(View) error) *Outcome {
	return e.sweep(certs, verify, nil)
}

// RunPLSSubset executes one verification round restricted to the node
// indices in idxs: only those nodes run verify, each on its full 1-round
// view, so the cost is proportional to the subset's total degree. This
// is the frontier-verification primitive of the dynamic certification
// subsystem (internal/dynamic): when an update batch changes
// certificates only at a set D of nodes and edges only inside D, every
// node outside D and its 1-hop neighborhood sees a bit-identical view,
// so re-running the verifier on that frontier decides global
// acceptance.
//
// Duplicate and out-of-range indices are dropped; the subset is verified
// in ascending index order, so sequential and parallel runs produce
// identical Outcomes (FailFast may, as in RunPLSAll, omit later
// rejections). The Outcome's accounting is restricted to the subset:
// N counts the verified nodes, certificate statistics cover their own
// certificates, and Messages counts the certificates they ship to their
// neighbors in the simulated round.
func (e *Engine) RunPLSSubset(certs []bits.Certificate, verify func(View) error, idxs []int) *Outcome {
	sub := make([]int, 0, len(idxs)) // never nil: an empty subset verifies no node
	for _, u := range idxs {
		if u >= 0 && u < e.g.N() {
			sub = append(sub, u)
		}
	}
	slices.Sort(sub)
	return e.sweep(certs, verify, slices.Compact(sub))
}

// sweepJob is one sweep's input and its verdicts.
type sweepJob struct {
	certs  []bits.Certificate // by node index, one per node
	sub    []int              // the nodes to verify, ascending; nil means every node
	verify func(View) error
	out    *Outcome
	// errs holds a parallel sweep's verdicts by position (nil means
	// accept); a sequential sweep has none and rejects into out at once,
	// in position order.
	errs []error
}

// node returns the node index at position i of the sweep.
func (j *sweepJob) node(i int) int {
	if j.sub == nil {
		return i
	}
	return j.sub[i]
}

// sweep verifies the nodes of sub, or every node when sub is nil, on
// views assembled from the live graph, and reduces the verdicts into
// one Outcome in sweep order.
func (e *Engine) sweep(certs []bits.Certificate, verify func(View) error, sub []int) *Outcome {
	n := e.g.N()
	if len(certs) < n {
		certs = append(certs[:len(certs):len(certs)], make([]bits.Certificate, n-len(certs))...)
	}
	k := n
	sp := e.span.Child(obs.SpanSweep)
	if sub == nil {
		sp.SetStr("mode", "full")
		sp.SetInt("nodes", int64(n))
	} else {
		k = len(sub)
		sp.SetStr("mode", "subset")
		sp.SetInt("frontier", int64(k))
	}
	out := &Outcome{N: k}
	job := sweepJob{certs: certs, sub: sub, verify: verify, out: out}

	// Account sizes and messages: each node ships its certificate to
	// every neighbor.
	for i := 0; i < k; i++ {
		u := job.node(i)
		c := certs[u]
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

	if e.parallel(k) {
		job.errs = make([]error, k)
		pj, shard := job, e.shardSize // a copy, so only this branch allocates it
		e.fanOut((k+shard-1)/shard, sp, func(s int, sc *Scratch) bool {
			return e.verifyRange(&pj, s*shard, min((s+1)*shard, k), sc)
		})
	} else {
		pool := e.scratchPool()
		sc := pool.get(sweeps.Add(1), n)
		e.verifyRange(&job, 0, k, sc)
		pool.put(sc)
	}

	// Deterministic reduction in sweep (node-index) order.
	for i, err := range job.errs {
		if err != nil {
			out.reject(e.g.IDOf(job.node(i)), err)
		}
	}
	sp.SetInt("cert_bits", int64(out.TotalCertBits))
	sp.SetInt("max_cert_bit", int64(out.MaxCertBit))
	sp.SetInt("messages", int64(out.Messages))
	sp.SetInt("rejecting", int64(len(out.Rejecting)))
	sp.End()
	return out
}

// verifyRange verifies positions lo..hi-1 of the sweep with one
// worker's scratch and reports whether the sweep should stop early
// (fail-fast).
func (e *Engine) verifyRange(j *sweepJob, lo, hi int, sc *Scratch) bool {
	for i := lo; i < hi; i++ {
		u := j.node(i)
		err := verifyView(e.g.IDOf(u), e.view(u, j.certs, sc), j.verify)
		if err == nil {
			continue
		}
		if j.errs != nil {
			j.errs[i] = err
		} else {
			j.out.reject(e.g.IDOf(u), err)
		}
		if e.failFast {
			return true
		}
	}
	return false
}

// reject records node id's rejection.
func (o *Outcome) reject(id graph.ID, err error) {
	o.Rejecting = append(o.Rejecting, id)
	if o.Reasons == nil {
		o.Reasons = make(map[graph.ID]string)
	}
	o.Reasons[id] = err.Error()
}

// view assembles node u's 1-round view from the live graph. The
// neighbor slice is carved out of the worker's scratch, so view
// assembly allocates nothing in steady state.
func (e *Engine) view(u int, certs []bits.Certificate, sc *Scratch) View {
	nbrs := e.g.Neighbors(u)
	ncs := sc.neighbors(len(nbrs))
	for i, v := range nbrs {
		nc := &ncs[i]
		nc.ID, nc.Cert, nc.Idx = e.g.IDOf(v), certs[v], int32(v)
	}
	return View{
		ID:        e.g.IDOf(u),
		Idx:       int32(u),
		Degree:    len(nbrs),
		Cert:      certs[u],
		Neighbors: ncs,
		Scratch:   sc,
	}
}
