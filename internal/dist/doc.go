// Package dist is the synchronous CONGEST-style simulator in which the
// paper's 1-round verification executes, built as the repo's performance
// core.
//
// The verification of a proof-labeling scheme is embarrassingly parallel
// by construction: every node decides accept/reject from its own 1-round
// view (its identifier, degree and certificate, plus each neighbor's
// identifier and certificate) with no further communication. The Engine
// exploits that:
//
//   - an assignment is a slice of certificates by node index, so a view
//     is assembled from the live graph with no identifier lookup, into
//     the worker's reusable neighbor buffer — no per-node allocation,
//     and an engine stays valid while the graph mutates;
//   - there is one sweep: RunPLSSubset verifies the nodes of a subset,
//     at a cost proportional to its total degree, which is what makes
//     incremental frontier verification in internal/dynamic cheap, and
//     RunPLSAll is the same code over every node (RunPLS and the
//     package-level RunPLS take an assignment keyed by identifier and
//     lay it out by index first);
//   - a sweep fans the per-node verifications across a worker pool over
//     fixed-size shards and reduces the per-node results into a single
//     Outcome in one deterministic pass;
//   - every sweep has a unique id (Scratch.Sweep), and views carry node indices (View.Idx) below the
//     graph's node count (Scratch.Nodes), so a verifier may decode each
//     certificate once per sweep into a table sized once, and share the
//     decode between the views that show it;
//   - NewEngine takes options (Sequential, Parallel, ShardSize,
//     FailFast, Limit) so experiments can compare execution modes on
//     identical inputs.
//
// Sequential and parallel exhaustive runs produce byte-identical
// Outcomes: workers write each node's verdict into a slot indexed by the
// node, and the reduction walks slots in index order.
//
// For multi-tenant callers (the planarcertd server runs one engine per
// live session), a shared Budget bounds the fleet-wide number of extra
// parallel workers: each sweep keeps one unconditional worker and takes
// more only while budget slots are free, so concurrent verifications
// degrade gracefully toward sequential execution instead of
// oversubscribing the machine.
//
// The same Engine also simulates general synchronous message-passing
// (Round, Broadcast) with bit-exact accounting, used by the distributed
// preprocessing phase.
package dist
