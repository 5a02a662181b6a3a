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
//     proof, and an Euler-tour splice for a spanning-tree edge removal
//     (a cotree edge takes the dead edge's place, see splice), for the
//     planarity scheme; spanning-tree surgery (subtree re-rooting with
//     distance/size patching) for the spanning-tree and non-planarity
//     schemes — bounded by a configurable scope threshold; and, for
//     every scheme, a new node whose one edge goes to an existing node,
//     hung in place as a leaf (see attachLeaves), which no threshold
//     charges;
//  3. re-verifies only the *frontier* — the dirty region plus its 1-hop
//     closure — through dist.RunPLSSubset; a batch that attached leaves
//     changed n in every certificate, so its sweep is full;
//  4. falls back to a full re-prove (optionally flipping between the
//     planarity and Kuratowski-witness schemes when planarity itself
//     flips) whenever repair is impossible, out of scope, or rejected
//     by the frontier; a generation-stamped certificate cache keyed by
//     an incremental graph fingerprint short-circuits re-proves for
//     previously-certified topologies (oscillating overlay workloads).
//     A re-prove under the same scheme of a batch that adds no node is
//     verified on the frontier of its certificate diff, like a repair.
//
// An assignment is a slice of certificates by node index. The graph
// never removes a node, so an index names the same node for the life
// of a session and in every cached assignment with the same n; the
// identifier-keyed maps of the public API are built at its boundary.
//
// A planarity re-prove starts from the embedding the live certificates
// encode. The certificates fix the DFS-mapping f and each chord's two
// ranks, and these fix a rotation system (the §3.2 cut read backwards).
// The session drops the batch's removed edges from it, inserts the chord
// of each edge it adds between two existing nodes at a face the chord's
// ends share (the one a repair would pick, but without the repair
// threshold), and hangs each new node whose only edge goes to an
// existing node at that node (a repair does the same without the
// prover, unless repair is off or the batch falls back for another
// reason). The prover then runs its usual steps on
// it: the Euler audit, the transform with its path-outerplanarity
// check, the certificates, and the sweep after them. The LR test runs
// instead when an edge between two existing nodes has no face in the
// kept embedding (the graph needs another embedding, or has none),
// when the session holds no certified planarity assignment (as on
// every flip), and when the kept embedding fails any of those steps. No
// rotation is kept between batches: it is read afresh from the state,
// which a restored session decodes first, so the re-prove is a function
// of the certificates, the batch and the session's re-add hints. A
// hint names the corners a removed edge left by the neighbors after it
// in the rotation, so that its re-add, in a repair or a re-prove, puts
// the chord back where it was. The hints live in memory only: a
// restored session starts without them, and any corner that shares a
// face makes a sound re-add, so they steer no acceptance.
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
// full re-prove. A repair that attached leaves changed every
// certificate, so its frontier is the whole network: it runs the full
// sweep, and a rejection puts the slice accepted before the batch back.
//
// A re-prove uses the same argument. When the session holds an accepted
// assignment, the new certificates are for the same scheme and the
// batch adds no node (a new node changes n in every certificate, so a
// re-prove of a batch that attaches leaves, or adds other nodes, has
// nothing to diff against), D is
// the set of nodes whose new certificates differ byte for byte from the
// accepted ones, and the re-prove verifies D ∪ N(D) plus the endpoints
// of the batch's edges, whatever its size: a frontier over every node
// runs the same sweep code as a full sweep. A flip and a batch that
// adds a node run the full sweep instead. A kept embedding whose sweep
// rejects is still proved again from the LR test. The argument needs
// one invariant: a certified session's certificates were accepted, at
// every node, on the graph before the batch. A repair whose frontier
// rejects therefore puts the certificates it replaced back, and drops
// the repair state it patched, before the batch falls through to the
// re-prove.
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
