package dist

import (
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
)

// NeighborCert is one neighbor's contribution to a node's 1-round view:
// its identifier and the certificate it was assigned, plus its node
// index in the engine's graph (see View.Idx).
type NeighborCert struct {
	ID   graph.ID
	Cert bits.Certificate
	Idx  int32
}

// View is everything a node sees when it runs the 1-round verifier: its
// own identifier, degree and certificate, and one NeighborCert per
// neighbor. Views handed out by the Engine alias shared arrays; verifiers
// must not mutate Neighbors or retain it past the call.
//
// Scratch is the decode arena of the worker running this node's
// verification (nil on views assembled outside the engine). Verifiers
// may decode into it to stay allocation-free in steady state; they must
// treat its contents as garbage on entry and must not retain anything
// stored in it past the call.
//
// Idx is the node's index in the engine's graph. Within one sweep
// (Scratch.Sweep() != 0) a node index names exactly one certificate, so
// a verifier may share the pure decode of a certificate between the
// views of one sweep, keyed by (sweep, index); a caller that rewrites a
// view's certificates must therefore not pass the engine's Scratch on.
// Outside a sweep Idx carries no meaning.
type View struct {
	ID        graph.ID
	Idx       int32
	Degree    int
	Cert      bits.Certificate
	Neighbors []NeighborCert
	Scratch   *Scratch
}

// Outcome summarises one verification round over the whole network.
type Outcome struct {
	// N is the number of nodes that ran the verifier.
	N int
	// Rejecting lists the rejecting nodes in node-index order (empty on
	// global acceptance). Under FailFast it holds at least one rejecting
	// node but may omit later ones.
	Rejecting []graph.ID
	// Reasons maps each rejecting node to its verifier's error.
	Reasons map[graph.ID]string
	// MaxCertBit is the largest certificate, in bits (the paper's
	// complexity measure).
	MaxCertBit int
	// TotalCertBits is the sum of all certificate sizes.
	TotalCertBits int
	// Messages counts the certificate messages exchanged in the round:
	// every node sends its certificate to every neighbor, so 2m in total.
	Messages int
	// MaxMsgBit is the largest message, in bits.
	MaxMsgBit int
}

// AllAccept reports global acceptance: no node rejected.
func (o *Outcome) AllAccept() bool { return len(o.Rejecting) == 0 }

// AvgCertBits returns the mean certificate size in bits.
func (o *Outcome) AvgCertBits() float64 {
	if o.N == 0 {
		return 0
	}
	return float64(o.TotalCertBits) / float64(o.N)
}

// FirstRejection returns the first rejecting node (in node-index order)
// and its reason; ok is false if every node accepted.
func (o *Outcome) FirstRejection() (id graph.ID, reason string, ok bool) {
	if len(o.Rejecting) == 0 {
		return 0, "", false
	}
	id = o.Rejecting[0]
	return id, o.Reasons[id], true
}

// RunPLS executes one verification round of a proof-labeling scheme on g
// with the given (possibly adversarial) certificate assignment: every
// node runs verify on its 1-round view. Nodes missing from certs see a
// zero-length certificate. It is the package-level convenience around
// NewEngine(g).RunPLS for one-shot callers.
func RunPLS(g *graph.Graph, certs map[graph.ID]bits.Certificate, verify func(View) error) *Outcome {
	return NewEngine(g).RunPLS(certs, verify)
}
