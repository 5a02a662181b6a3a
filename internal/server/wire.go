package server

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/wire"
)

// ndjsonTypes are the Content-Type values routed to the NDJSON update
// parser; the empty string keeps bare curl/legacy clients working.
const acceptPostTypes = "application/x-ndjson, application/json, " + wire.ContentType

// contentTypeBase returns the media type without parameters, lowercased
// ("application/json; charset=utf-8" -> "application/json").
func contentTypeBase(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// rejectMediaType answers 415 with an Accept-Post hint listing the
// media types POST .../updates understands.
func (s *Server) rejectMediaType(w http.ResponseWriter, r *http.Request) {
	s.met.unsupportedMedia.Add(1)
	w.Header().Set("Accept-Post", acceptPostTypes)
	writeError(w, http.StatusUnsupportedMediaType,
		"unsupported Content-Type %q (want one of %s)", r.Header.Get("Content-Type"), acceptPostTypes)
}

// wireScratch is the pooled per-request arena of the binary updates
// path: the body buffer and the frame decode scratch (whose update slab
// the session consumes directly) are both reused, so a steady-state
// binary batch costs O(1) allocations end to end.
type wireScratch struct {
	body []byte
	ws   *wire.Scratch
}

var wireScratchPool = sync.Pool{New: func() interface{} {
	return &wireScratch{ws: wire.GetScratch()}
}}

// readAllInto reads r to EOF into buf's capacity, growing it only when
// needed (io.ReadAll without the per-request allocation).
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeAckFrame responds with a single batch-ack frame. Encode failures
// (out-of-range values) fall back to the JSON error envelope.
func (s *Server) writeAckFrame(w http.ResponseWriter, code int, ack *planarcert.WireBatchAck) {
	frame, err := planarcert.EncodeBatchAckFrame(ack)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode ack frame: %v", err)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(code)
	_, _ = w.Write(frame)
	s.met.wireFrames.Add(1)
}

// handleUpdatesBinary is the frame-protocol branch of handleUpdates:
// the body is one update-batch frame (the frame's mode field replaces
// the ?mode= query parameter), decoded zero-copy into pooled scratch,
// and the ack is a batch-ack frame. Errors keep the JSON envelope —
// only success responses are binary.
func (s *Server) handleUpdatesBinary(w http.ResponseWriter, r *http.Request, ms *session) {
	sc := wireScratchPool.Get().(*wireScratch)
	defer wireScratchPool.Put(sc)
	var err error
	sc.body, err = readAllInto(sc.body, http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	kind, payload, n, err := wire.ParseFrame(sc.body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	if kind != wire.KindUpdateBatch || n != len(sc.body) {
		writeError(w, http.StatusBadRequest,
			"body must be a single update-batch frame (got kind %s, %d trailing bytes)", kind, len(sc.body)-n)
		return
	}
	mode, updates, err := wire.DecodeUpdateBatch(payload, sc.ws)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	if len(updates) > s.cfg.MaxBatchUpdates {
		writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d updates", s.cfg.MaxBatchUpdates)
		return
	}
	s.met.wireBatches.Add(1)

	ms.touch()
	if mode == wire.ModeQueue {
		pending, err := ms.queue(updates)
		if err != nil {
			s.batchError(w, err)
			return
		}
		s.writeAckFrame(w, http.StatusAccepted, &planarcert.WireBatchAck{Queued: len(updates), Pending: pending})
		return
	}
	if rep, elapsed, ok := s.runBatch(w, r, ms, updates, false); ok {
		s.writeAckFrame(w, http.StatusOK, &planarcert.WireBatchAck{Queued: len(updates), Elapsed: elapsed, Report: rep})
	}
}

// handleWatchAck advances (ack) or rewinds (nack) a binary watch
// subscription's replay cursor. The body is a single ack or nack frame
// with Content-Type planarcert.WireContentType.
func (s *Server) handleWatchAck(w http.ResponseWriter, r *http.Request) {
	ms := s.lookup(r.PathValue("name"))
	if ms == nil {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("name"))
		return
	}
	if ct := contentTypeBase(r.Header.Get("Content-Type")); ct != wire.ContentType {
		s.met.unsupportedMedia.Add(1)
		w.Header().Set("Accept-Post", wire.ContentType)
		writeError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type %q (want %s)", r.Header.Get("Content-Type"), wire.ContentType)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	kind, payload, n, err := wire.ParseFrame(body)
	if err != nil || n != len(body) {
		writeError(w, http.StatusBadRequest, "body must be a single ack or nack frame")
		return
	}
	switch kind {
	case wire.KindAck:
		sub, version, err := wire.DecodeAck(payload)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad ack frame: %v", err)
			return
		}
		if !ms.ack(sub, version) {
			writeError(w, http.StatusNotFound, "no subscription %d", sub)
			return
		}
		s.met.watchAcks.Add(1)
	case wire.KindNack:
		sub, version, reason, err := wire.DecodeNack(payload)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad nack frame: %v", err)
			return
		}
		if !ms.nack(sub, version) {
			writeError(w, http.StatusNotFound, "no subscription %d", sub)
			return
		}
		_ = reason // surfaced only through the metric today
		s.met.watchNacks.Add(1)
	default:
		writeError(w, http.StatusBadRequest, "body must be an ack or nack frame, got %s", kind)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
