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
//   - the topology and certificate layout are precomputed once into a
//     CSR-style adjacency (offsets + neighbor arena), so each node's View
//     is a zero-copy slice of shared arrays — no per-node allocation;
//   - RunPLS fans the per-node verifications across a worker pool over
//     fixed-size index shards and reduces the per-node results into a
//     single Outcome in one deterministic pass;
//   - RunPLSSubset verifies only a subset of nodes against the live
//     graph (no layout snapshot), which is what makes incremental
//     frontier verification in internal/dynamic cost ~ subset degree;
//   - every RunPLS and RunPLSSubset call is one sweep with a unique id
//     (Scratch.Sweep), and views carry node indices (View.Idx) below the
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
// parallel workers: each RunPLS keeps one unconditional worker and takes
// more only while budget slots are free, so concurrent verifications
// degrade gracefully toward sequential execution instead of
// oversubscribing the machine.
//
// The same Engine also simulates general synchronous message-passing
// (Round, Broadcast) with bit-exact accounting, used by the distributed
// preprocessing phase.
package dist
