// Package core implements the contribution of Feuilloley, Fraigniaud,
// Rapaport, Rémila, Montealegre and Todinca, "Compact Distributed
// Certification of Planar Graphs" (PODC 2020):
//
//   - the proof-labeling scheme for path-outerplanar graphs
//     (Section 3.1, Lemma 2 / Algorithm 1),
//   - the transformation of a planar graph into a path-outerplanar graph
//     by cutting along a spanning tree (Section 3.2, Lemmas 3-4),
//   - the 1-round proof-labeling scheme for planarity with O(log n)-bit
//     certificates (Section 3.3, Theorem 1 / Algorithm 2),
//   - the folklore proof-labeling scheme for NON-planarity via Kuratowski
//     subdivisions (Section 2),
//   - the cycle-outerplanarity scheme sketched in the conclusion.
//
// Each scheme is a pls.Scheme: a centralized Prove that assigns every
// node an O(log n)-bit certificate, and a local Verify that decides
// accept/reject from a 1-round dist.View. Beyond the plain Prove
// entry points, the structured provers (ProvePlanarFrom, ProveNonPlanar,
// BuildPlanarCertObjects, BuildNonPlanarProof, EncodePlanarCerts) expose
// the intermediate proof objects — spanning-path ranks, covering
// intervals, witness assignments — so internal/dynamic can patch
// certificates locally instead of re-proving from scratch.
//
// Verifier determinism: rejection reasons are produced in view order,
// so sequential and parallel engine runs report identical outcomes.
package core
