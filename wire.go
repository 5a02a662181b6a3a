package planarcert

import (
	"fmt"
	"io"

	"github.com/planarcert/planarcert/internal/wire"
)

// WireContentType is the HTTP media type of planarcertd's binary frame
// protocol. POST .../updates bodies with this Content-Type are decoded
// as a single update-batch frame (and acked with a batch-ack frame);
// .../watch?format=binary streams hello/event frames under it. The byte
// format is frozen — see internal/wire and ARCHITECTURE.md.
const WireContentType = wire.ContentType

// WireBatchAck is the decoded binary response of POST .../updates: the
// frame counterpart of the JSON UpdatesResponse. Its Elapsed field is
// the server-side batch execution time (apply mode) and Report the
// absorption report (apply mode only).
type WireBatchAck = wire.BatchAck

// WireHello is the decoded opening frame of a binary watch stream: the
// version-acknowledged subscription identity and how a resume was
// honored. When Reset is set the server's replay ring no longer covered
// the gap: only the latest event is replayed and the client must re-sync
// full state (GET .../graph and .../certificates).
type WireHello = wire.Hello

// WireEvent is one decoded watch event: a session report stamped with
// its monotonically increasing version (the session generation).
type WireEvent struct {
	// Version orders the event; acknowledge it to advance the
	// subscription's replay cursor.
	Version uint64
	// Report is the batch absorption report.
	Report *SessionReport
}

// WireError is a decoded server failure frame.
type WireError struct {
	// Code is an HTTP-style status code.
	Code int
	// Message is the human-readable error.
	Message string
}

// WireMessage is one frame read from a binary watch stream; exactly one
// field is non-nil.
type WireMessage struct {
	// Hello opens the stream.
	Hello *WireHello
	// Event carries one versioned report.
	Event *WireEvent
	// Err reports a server-side failure.
	Err *WireError
}

// wireBatchMode maps the ?mode= query value onto the frozen frame code.
func wireBatchMode(mode string) (wire.BatchMode, error) {
	switch mode {
	case "", "apply":
		return wire.ModeApply, nil
	case "queue":
		return wire.ModeQueue, nil
	}
	return 0, fmt.Errorf("planarcert: batch mode must be apply or queue, got %q", mode)
}

// EncodeUpdatesFrame encodes one update batch as a binary frame, the
// body of a POST .../updates request with Content-Type WireContentType.
// mode is "apply", "queue" or "" (= apply) and overrides the ?mode=
// query parameter server-side.
func EncodeUpdatesFrame(mode string, updates []Update) ([]byte, error) {
	m, err := wireBatchMode(mode)
	if err != nil {
		return nil, err
	}
	return wire.EncodeUpdateBatch(m, updates)
}

// DecodeUpdatesFrame decodes an update-batch frame produced by
// EncodeUpdatesFrame (or any conforming client). The server's hot path
// uses internal/wire's pooled zero-copy decoder instead; this is the
// public, allocating counterpart.
func DecodeUpdatesFrame(frame []byte) (mode string, updates []Update, err error) {
	kind, payload, n, err := wire.ParseFrame(frame)
	if err != nil {
		return "", nil, err
	}
	if kind != wire.KindUpdateBatch || n != len(frame) {
		return "", nil, fmt.Errorf("planarcert: not a single update-batch frame (kind %s, %d trailing bytes)", kind, len(frame)-n)
	}
	m, updates, err := wire.DecodeUpdateBatch(payload, nil)
	if err != nil {
		return "", nil, err
	}
	if m == wire.ModeQueue {
		return "queue", updates, nil
	}
	return "apply", updates, nil
}

// EncodeBatchAckFrame encodes an update-batch response as a binary
// frame (the server side of the codec).
func EncodeBatchAckFrame(ack *WireBatchAck) ([]byte, error) {
	return wire.EncodeBatchAck(ack)
}

// DecodeBatchAckFrame decodes the single batch-ack frame a binary
// updates request is answered with.
func DecodeBatchAckFrame(frame []byte) (*WireBatchAck, error) {
	kind, payload, n, err := wire.ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if kind != wire.KindBatchAck || n != len(frame) {
		return nil, fmt.Errorf("planarcert: not a single batch-ack frame (kind %s, %d trailing bytes)", kind, len(frame)-n)
	}
	return wire.DecodeBatchAck(payload)
}

// EncodeEventFrame encodes one versioned session report as a watch
// event frame (the server side of the codec). A nil report encodes as
// the zero report.
func EncodeEventFrame(version uint64, rep *SessionReport) ([]byte, error) {
	if rep == nil {
		rep = &SessionReport{}
	}
	return wire.EncodeEvent(version, rep)
}

// EncodeWatchAckFrame encodes a subscription acknowledgement: the
// client has applied every event up to and including version. POST it
// to .../watch/ack with Content-Type WireContentType.
func EncodeWatchAckFrame(sub, version uint64) ([]byte, error) {
	return wire.EncodeAck(sub, version)
}

// EncodeWatchNackFrame encodes a subscription rejection of the event at
// version; replay after reconnect restarts before it. POST it to
// .../watch/ack with Content-Type WireContentType.
func EncodeWatchNackFrame(sub, version uint64, reason string) ([]byte, error) {
	return wire.EncodeNack(sub, version, reason)
}

// WireScanner reads a binary watch stream frame by frame. It reuses one
// payload buffer internally but returns fully decoded (owned) messages.
type WireScanner struct {
	fr *wire.Reader
}

// NewWireScanner wraps a binary watch response body.
func NewWireScanner(r io.Reader) *WireScanner {
	return &WireScanner{fr: wire.NewReader(r)}
}

// Next reads one frame. It returns io.EOF on a clean end-of-stream.
func (s *WireScanner) Next() (*WireMessage, error) {
	kind, payload, err := s.fr.Next()
	if err != nil {
		return nil, err
	}
	switch kind {
	case wire.KindHello:
		h, err := wire.DecodeHello(payload)
		if err != nil {
			return nil, err
		}
		return &WireMessage{Hello: &h}, nil
	case wire.KindEvent:
		version, rep, err := wire.DecodeEvent(payload)
		if err != nil {
			return nil, err
		}
		return &WireMessage{Event: &WireEvent{Version: version, Report: rep}}, nil
	case wire.KindError:
		code, msg, err := wire.DecodeError(payload)
		if err != nil {
			return nil, err
		}
		return &WireMessage{Err: &WireError{Code: code, Message: msg}}, nil
	}
	return nil, fmt.Errorf("planarcert: unexpected %s frame on watch stream", kind)
}
