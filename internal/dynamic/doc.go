// Package dynamic maintains proof-labeling-scheme certificates for a
// mutable network under a live stream of topology updates, so that a
// steady-state update costs work proportional to the change rather than
// to the network size.
//
// A Session owns a mutable graph together with its current certificate
// assignment. Updates (edge insertions/removals, node additions) are
// queued into an update log and applied in batches. Per batch the
// maintainer:
//
//  1. computes the net effect and the *dirty region* (endpoints of
//     changed edges plus the nodes whose certificates the repair
//     touches);
//  2. attempts a localized certificate repair — chord (cotree-edge)
//     insertion/removal with interval patching on the spanning-path
//     proof for the planarity scheme, spanning-tree surgery (subtree
//     re-rooting with distance/size patching) for the spanning-tree and
//     non-planarity schemes — bounded by a configurable scope threshold;
//  3. re-verifies only the *frontier* — the dirty region plus its 1-hop
//     closure — through dist.RunPLSSubset;
//  4. falls back to a full re-prove (optionally flipping between the
//     planarity and Kuratowski-witness schemes when planarity itself
//     flips) whenever repair is impossible, out of scope, or rejected
//     by the frontier; a generation-stamped certificate cache keyed by
//     an incremental graph fingerprint short-circuits re-proves for
//     previously-certified topologies (oscillating overlay workloads).
//     A re-prove under the same scheme of a batch that adds no node is
//     verified on the frontier of its certificate diff, like a repair.
//
// A planarity re-prove starts from the embedding the live certificates
// encode. The certificates fix the DFS-mapping f and each chord's two
// ranks, and these fix a rotation system (the §3.2 cut read backwards).
// The session drops the batch's removed edges from it and hangs each new
// node whose only edge goes to an existing node at that node. The prover
// then runs its usual steps on it: the Euler audit, the transform with
// its path-outerplanarity check, the certificates, and the sweep after
// them. The LR test runs instead when the batch adds an edge
// between two existing nodes (the kept embedding may have no face for
// it), when the session holds no certified planarity assignment (as on
// every flip), and when the kept embedding fails any of those steps. No
// rotation is kept between batches: it is read afresh from the state,
// which a restored session decodes first, so the re-prove is a function
// of the certificates and the batch.
//
// Frontier soundness. A proof-labeling verifier is local: node u's
// verdict depends only on its 1-round view (its own identifier, degree
// and certificate, plus each neighbor's identifier and certificate).
// If a batch changes certificates only at a node set D and edges only
// between nodes of D, then every node outside D ∪ N(D) has a
// bit-identical view before and after the batch, hence an unchanged
// verdict. Starting from a globally accepted assignment, re-verifying
// D ∪ N(D) therefore decides global acceptance exactly — this is the
// local checkability of certificates that makes incremental
// maintenance sound regardless of how clever (or wrong) the repair
// heuristic is: a bad repair is caught on the frontier and demoted to a
// full re-prove.
//
// A re-prove uses the same argument. When the session holds an accepted
// assignment, the new certificates are for the same scheme and the
// batch adds no node (a new node changes n in every certificate), D is
// the set of nodes whose new certificates differ byte for byte from the
// accepted ones, and the re-prove verifies D ∪ N(D) plus the endpoints
// of the batch's edges. A re-prove that rewrites most certificates (a
// frontier over more than half of the nodes), a flip, and a batch that
// adds a node run the full sweep instead. A kept embedding whose sweep
// rejects is still proved again from the LR test. The argument needs
// one invariant: a certified session's certificates were accepted, at
// every node, on the graph before the batch. A repair whose frontier
// rejects therefore puts the certificates it replaced back before the
// batch falls through to the re-prove.
//
// Repair state is a function of the accepted assignment (Section 3.3):
// the planarity tree-edge and cotree certificates give f, the copies,
// the parents, I(·) and the chords at each rank; the tree certificates
// give the spanning tree, and the non-planarity roles the witness. Each
// scheme has one constructor taking the graph and the certificate
// objects by node index. A planarity or non-planarity re-prove passes
// the prover's objects in; after a cache adoption or a Restore, the
// first repair attempt decodes the live certificates, so a restored
// session absorbs batches as a fresh one.
//
// Concurrency. A Session is deliberately single-goroutine: it has no
// internal locking, and callers that share one session across
// goroutines must serialize every method. The planarcertd server
// (internal/server) wraps each session in exactly such a serialization
// layer and bounds the verification fan-out of many concurrent sessions
// with a shared dist.Budget.
package dynamic
