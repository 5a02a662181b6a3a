// Package report declares the verifier's output types: the per-sweep
// verification Report and the per-batch SessionReport, plus the
// SchemeName that labels them. It holds types only, so the public
// planarcert package (which aliases them) and internal/wire (which
// encodes them in frozen binary frames) share one declaration instead
// of mirroring each other. The JSON field names are part of the
// planarcertd NDJSON wire format.
package report

import "github.com/planarcert/planarcert/internal/graph"

// SchemeName selects one of the proof-labeling schemes.
type SchemeName string

// Report summarises one verification round. The JSON field names are
// part of the planarcertd wire format.
type Report struct {
	// Accepted is the global verdict: true iff every node accepted.
	Accepted bool `json:"accepted"`
	// Rejecting lists the rejecting nodes in ascending index order.
	Rejecting []graph.ID `json:"rejecting,omitempty"`
	// Reasons gives each rejecting node's first error.
	Reasons map[graph.ID]string `json:"reasons,omitempty"`
	// MaxCertBits is the largest certificate, in bits (the paper's
	// O(log n) headline quantity).
	MaxCertBits int `json:"max_cert_bits"`
	// AvgCertBits is the mean certificate size over all nodes.
	AvgCertBits float64 `json:"avg_cert_bits"`
	// Messages counts the node-to-node messages of the single
	// verification round (each node ships its certificate to every
	// neighbor).
	Messages int `json:"messages"`
	// MaxMsgBits is the largest single message, in bits.
	MaxMsgBits int `json:"max_msg_bits"`
}

// SessionReport describes how one update batch was absorbed. The JSON
// field names are part of the planarcertd wire format (the watch stream
// emits one SessionReport per flushed batch).
type SessionReport struct {
	// Generation counts absorbed batches (0 is the initial certification).
	Generation uint64 `json:"generation"`
	// Mode is how the batch was absorbed: "noop", "repair" (localized
	// repair + frontier verification), "cache" (certificate cache hit),
	// "reprove" (full re-prove, verified on the frontier of its
	// certificate diff against the last accepted assignment when the
	// batch adds no node, else by a full sweep), "flip" (re-prove under
	// the counterpart scheme after planarity flipped, full sweep), or
	// "uncertified".
	Mode string `json:"mode"`
	// ActiveScheme is the scheme certifying the network after the batch.
	ActiveScheme SchemeName `json:"active_scheme"`
	// Updates is the number of log entries absorbed.
	Updates int `json:"updates"`
	// Dirty counts the nodes whose certificates changed; a re-prove with
	// no accepted assignment to diff against counts every node.
	Dirty int `json:"dirty"`
	// Verified counts the nodes whose verifier re-ran.
	Verified int `json:"verified"`
	// FullVerify reports whether a full sweep re-verified the network; a
	// frontier sweep (repairs, most re-proves) leaves it false.
	FullVerify bool `json:"full_verify"`
	// Accepted is the verification verdict.
	Accepted bool `json:"accepted"`
	// Verification carries the verification details (nil when nothing
	// ran, e.g. a noop batch).
	Verification *Report `json:"verification,omitempty"`
	// CacheGeneration is the generation stamp of the cache entry that
	// served a "cache" batch.
	CacheGeneration uint64 `json:"cache_generation,omitempty"`
	// RepairFallback explains why a localized repair was abandoned.
	RepairFallback string `json:"repair_fallback,omitempty"`
	// ProveErr is the prover failure of an "uncertified" batch.
	ProveErr string `json:"prove_err,omitempty"`
}
