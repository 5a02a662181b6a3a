package server

import (
	"fmt"
	"strings"
	"time"

	planarcert "github.com/planarcert/planarcert"
)

// GraphSpec describes a network in a request body. Either the
// structured form (Nodes + Edges; edge endpoints are added implicitly)
// or the text form (EdgeList, the planarcert.ParseEdgeList format) may
// be used; the structured form wins when both are present and non-empty.
type GraphSpec struct {
	// Nodes lists node identifiers, including isolated ones.
	Nodes []planarcert.NodeID `json:"nodes,omitempty"`
	// Edges lists undirected edges as identifier pairs.
	Edges [][2]planarcert.NodeID `json:"edges,omitempty"`
	// EdgeList is the text edge-list form ("u v" per line).
	EdgeList string `json:"edge_list,omitempty"`
}

// Network materialises the spec.
func (g GraphSpec) Network() (*planarcert.Network, error) {
	if len(g.Nodes) == 0 && len(g.Edges) == 0 {
		if g.EdgeList != "" {
			return planarcert.ParseEdgeList(strings.NewReader(g.EdgeList))
		}
		return planarcert.NewNetwork(), nil
	}
	n := planarcert.NewNetwork()
	add := func(id planarcert.NodeID) error {
		if !n.HasNode(id) {
			return n.AddNode(id)
		}
		return nil
	}
	for _, id := range g.Nodes {
		if err := add(id); err != nil {
			return nil, err
		}
	}
	for _, e := range g.Edges {
		if err := add(e[0]); err != nil {
			return nil, err
		}
		if err := add(e[1]); err != nil {
			return nil, err
		}
		if err := n.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// Name is the session identifier used in all per-session URLs.
	Name string `json:"name"`
	// Scheme selects the proof-labeling scheme (default "planarity").
	Scheme planarcert.SchemeName `json:"scheme,omitempty"`
	// Graph is the initial network (default empty).
	Graph GraphSpec `json:"graph"`
	// RepairThreshold tunes planarcert.WithRepairThreshold (0 = default).
	RepairThreshold int `json:"repair_threshold,omitempty"`
	// CacheSize tunes planarcert.WithCacheSize (0 = default).
	CacheSize int `json:"cache_size,omitempty"`
	// NoFlip applies planarcert.WithoutFlip.
	NoFlip bool `json:"no_flip,omitempty"`
	// QoS is the session's quality-of-service class for fair-share
	// scheduling: "interactive", "batch" or "background" (default: the
	// server's Config.DefaultQoS). A reprove storm in one class cannot
	// starve batches in another — contended execution and worker slots
	// are granted by class weight.
	QoS string `json:"qos,omitempty"`
}

// SessionStatus is the REST representation of one live session.
type SessionStatus struct {
	// Name is the session identifier.
	Name string `json:"name"`
	// Scheme is the scheme requested at creation.
	Scheme planarcert.SchemeName `json:"scheme"`
	// ActiveScheme is the scheme currently certifying the network (it
	// differs from Scheme after a planarity flip).
	ActiveScheme planarcert.SchemeName `json:"active_scheme"`
	// Nodes and Edges size the live network.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Generation counts absorbed batches.
	Generation uint64 `json:"generation"`
	// Certified reports whether the current assignment was accepted.
	Certified bool `json:"certified"`
	// Pending counts queued-but-unflushed updates.
	Pending int `json:"pending"`
	// Watchers counts open watch streams.
	Watchers int `json:"watchers"`
	// Last is the report of the most recent batch.
	Last *planarcert.SessionReport `json:"last,omitempty"`
	// CreatedAt is the session creation time.
	CreatedAt time.Time `json:"created_at"`
	// QoS is the session's quality-of-service class.
	QoS string `json:"qos,omitempty"`
	// RepairThreshold is the session's localized-repair scope bound: the
	// repair_threshold requested at creation, the default when none was,
	// or -1 when repair is disabled. It is fixed for the session's life.
	RepairThreshold int `json:"repair_threshold,omitempty"`
	// Durable reports whether the session is backed by a WAL + snapshots.
	Durable bool `json:"durable,omitempty"`
	// WalSeq is the highest durable WAL sequence number (durable only).
	WalSeq uint64 `json:"wal_seq,omitempty"`
}

// UpdateLine is one NDJSON line of a POST .../updates body.
type UpdateLine struct {
	// Op is "add_edge", "remove_edge" or "add_node" (aliases: "+", "-",
	// "n").
	Op string `json:"op"`
	// A and B are the endpoints; add_node uses only A.
	A planarcert.NodeID `json:"a"`
	B planarcert.NodeID `json:"b"`
}

// Update converts the wire line to a session update.
func (l UpdateLine) Update() (planarcert.Update, error) {
	switch l.Op {
	case "add_edge", "+":
		return planarcert.EdgeAdd(l.A, l.B), nil
	case "remove_edge", "-":
		return planarcert.EdgeRemove(l.A, l.B), nil
	case "add_node", "n":
		return planarcert.NodeAdd(l.A), nil
	default:
		return planarcert.Update{}, fmt.Errorf("unknown op %q (want add_edge, remove_edge or add_node)", l.Op)
	}
}

// UpdatesResponse is the body returned by POST .../updates and .../flush.
type UpdatesResponse struct {
	// Queued counts the updates accepted by this request.
	Queued int `json:"queued"`
	// Pending counts updates still queued after this request (non-zero
	// only in queue mode).
	Pending int `json:"pending"`
	// Report is the absorption report (apply/flush modes only). The
	// session keeps one shared update log, so Report.Updates may exceed
	// Queued: an apply or flush absorbs everything pending, including
	// updates queued earlier by other clients.
	Report *planarcert.SessionReport `json:"report,omitempty"`
	// ElapsedSeconds is the server-side batch execution time
	// (repair/re-prove + verification + persistence), excluding the
	// admission-queue and session-lock waits — the round trip minus
	// this is time spent queueing.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
}

// WireCertificate is the JSON form of one node's certificate.
type WireCertificate struct {
	// Data is the certificate bitstream, base64-encoded by encoding/json.
	Data []byte `json:"data"`
	// Bits is the exact bit length (Data carries padding to a byte).
	Bits int `json:"bits"`
}

// CertifyRequest is the body of the one-shot POST /v1/certify.
type CertifyRequest struct {
	// Scheme selects the proof-labeling scheme (default "planarity").
	Scheme planarcert.SchemeName `json:"scheme,omitempty"`
	// Graph is the network to certify.
	Graph GraphSpec `json:"graph"`
	// IncludeCertificates returns the full assignment in the response.
	IncludeCertificates bool `json:"include_certificates,omitempty"`
}

// CertifyResponse is the body returned by POST /v1/certify.
type CertifyResponse struct {
	// Report is the verification report of the honest assignment.
	Report *planarcert.Report `json:"report"`
	// Certificates is the assignment (only when requested).
	Certificates map[planarcert.NodeID]WireCertificate `json:"certificates,omitempty"`
}

// VerifyRequest is the body of the one-shot POST /v1/verify: a network,
// a scheme, and an arbitrary (possibly adversarial) assignment.
type VerifyRequest struct {
	// Scheme selects the proof-labeling scheme (default "planarity").
	Scheme planarcert.SchemeName `json:"scheme,omitempty"`
	// Graph is the network to verify against.
	Graph GraphSpec `json:"graph"`
	// Certificates is the assignment to check.
	Certificates map[planarcert.NodeID]WireCertificate `json:"certificates"`
}

// Health is the body of GET /healthz.
type Health struct {
	// Status is "ok" while the daemon accepts requests.
	Status string `json:"status"`
	// Sessions counts live sessions.
	Sessions int `json:"sessions"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Batches counts flushed batches by absorption mode; the
	// repair-vs-reprove ratio falls out of it.
	Batches map[string]uint64 `json:"batches,omitempty"`
}

// Ready is the body of GET /readyz: the readiness probe, which (unlike
// /healthz liveness) answers 503 while boot recovery replays session
// state or a graceful shutdown drains it.
type Ready struct {
	// Ready is true once recovery completed and the server is not
	// draining.
	Ready bool `json:"ready"`
	// Status is "ok", "recovering" or "draining".
	Status string `json:"status"`
	// Sessions counts live sessions.
	Sessions int `json:"sessions"`
	// SessionsRestored counts sessions restored from durable state.
	SessionsRestored uint64 `json:"sessions_restored"`
	// RecoverySeconds is the boot replay duration (0 until it completes).
	RecoverySeconds float64 `json:"recovery_seconds"`
}

// GraphExport is the body of GET /v1/sessions/{name}/graph: the live
// topology, exact enough for a client to diff against its own mirror.
type GraphExport struct {
	// Nodes lists every node identifier.
	Nodes []planarcert.NodeID `json:"nodes"`
	// Edges lists every undirected edge, smaller identifier first.
	Edges [][2]planarcert.NodeID `json:"edges"`
	// Fingerprint is the 128-bit topology fingerprint as 32 hex digits.
	Fingerprint string `json:"fingerprint"`
}

// APIError is the JSON error envelope of every non-2xx response.
type APIError struct {
	// Error is the human-readable message.
	Error string `json:"error"`
}

func wireCertificates(certs planarcert.Certificates) map[planarcert.NodeID]WireCertificate {
	out := make(map[planarcert.NodeID]WireCertificate, len(certs))
	for id, c := range certs {
		out[id] = WireCertificate{Data: c.Data, Bits: c.Bits}
	}
	return out
}

func unwireCertificates(in map[planarcert.NodeID]WireCertificate) planarcert.Certificates {
	out := make(planarcert.Certificates, len(in))
	for id, c := range in {
		out[id] = planarcert.Certificate{Data: c.Data, Bits: c.Bits}
	}
	return out
}
