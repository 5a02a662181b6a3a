package wire

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/report"
)

// BatchMode says what the server should do with an update batch. The
// values are the frozen 2-bit on-the-wire codes.
type BatchMode byte

// Batch modes: apply absorbs the batch (plus any pending log) now,
// queue only appends to the session log for a later flush.
const (
	ModeApply BatchMode = 0
	ModeQueue BatchMode = 1
)

// BatchAck is the response to an update-batch frame.
type BatchAck struct {
	// Queued counts the updates accepted by the request.
	Queued int
	// Pending counts updates still queued after the request (queue mode).
	Pending int
	// Elapsed is the server-side batch execution time (apply mode),
	// encoded as varint nanoseconds.
	Elapsed time.Duration
	// Report is the absorption report (apply mode only).
	Report *report.SessionReport
}

// Hello opens a binary watch stream: the subscription identifier (new
// or resumed), the session's latest event version, and how the resume
// was honored.
type Hello struct {
	// Subscription identifies the version-acknowledged subscription;
	// pass it back as ?sub= to resume and in Ack/Nack frames.
	Subscription uint64
	// Version is the session's latest event version at attach time.
	Version uint64
	// ResumeFrom is the version replay restarts after (the last ACKed
	// version of a resumed subscription; Version for a fresh one).
	ResumeFrom uint64
	// Reset reports that the replay ring no longer covered the gap back
	// to ResumeFrom: only the latest event is replayed and the client
	// must re-sync full state (e.g. GET .../graph and .../certificates).
	Reset bool
}

// encodeFrame runs fill against a pooled bits.Writer and wraps the
// payload in a frame of the given kind.
func encodeFrame(kind Kind, fill func(w *bits.Writer) error) ([]byte, error) {
	w := writerPool.Get().(*bits.Writer)
	defer writerPool.Put(w)
	w.Reset()
	if err := fill(w); err != nil {
		return nil, err
	}
	return AppendFrame(make([]byte, 0, HeaderSize+len(w.Raw())), kind, w.Raw())
}

var writerPool = sync.Pool{New: func() interface{} { return new(bits.Writer) }}

// writeNonNeg encodes a non-negative int as a varint.
func writeNonNeg(w *bits.Writer, v int, field string) error {
	if v < 0 {
		return fmt.Errorf("wire: negative %s %d", field, v)
	}
	return w.WriteVar(uint64(v))
}

// writeString encodes a varint byte length followed by the raw bytes.
func writeString(w *bits.Writer, s string) error {
	if err := w.WriteVar(uint64(len(s))); err != nil {
		return err
	}
	for i := 0; i < len(s); i++ {
		if err := w.WriteUint(uint64(s[i]), 8); err != nil {
			return err
		}
	}
	return nil
}

// readString decodes a string written by writeString. The byte length
// is bounded by the payload the reader was reset onto, so a corrupt
// length cannot cause a giant allocation.
func readString(r *bits.Reader, limit int) (string, error) {
	n, err := r.ReadVar()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) {
		return "", fmt.Errorf("%w: string length %d", ErrBadPayload, n)
	}
	if n == 0 {
		return "", nil
	}
	buf := make([]byte, n)
	for i := range buf {
		c, err := r.ReadUint(8)
		if err != nil {
			return "", err
		}
		buf[i] = byte(c)
	}
	return string(buf), nil
}

// EncodeUpdateBatch encodes one update batch as a complete frame. Each
// op is written as its graph.Op value, which is the frozen 2-bit code.
func EncodeUpdateBatch(mode BatchMode, ups []graph.Update) ([]byte, error) {
	if mode > ModeQueue {
		return nil, fmt.Errorf("wire: bad batch mode %d", mode)
	}
	return encodeFrame(KindUpdateBatch, func(w *bits.Writer) error {
		if err := w.WriteUint(uint64(mode), 2); err != nil {
			return err
		}
		if err := w.WriteVar(uint64(len(ups))); err != nil {
			return err
		}
		for _, u := range ups {
			if !u.Op.Valid() {
				return fmt.Errorf("wire: bad op %d", u.Op)
			}
			if err := w.WriteUint(uint64(u.Op), 2); err != nil {
				return err
			}
			if err := w.WriteVarInt(int64(u.A)); err != nil {
				return err
			}
			if u.Op != graph.OpAddNode {
				if err := w.WriteVarInt(int64(u.B)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Scratch is a pooled decode arena for update batches: the slice
// DecodeUpdateBatch returns aliases it, so a steady-state decode costs
// zero allocations. Release returns it to the pool once the decoded
// batch has been consumed.
type Scratch struct {
	r   bits.Reader
	ups []graph.Update
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch takes a scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the scratch (and every batch decoded into it) to the
// pool.
func (s *Scratch) Release() { scratchPool.Put(s) }

// DecodeUpdateBatch decodes an update-batch payload into s. The
// returned slice aliases s and is invalidated by the next decode or
// Release. A nil scratch allocates fresh (convenient for tests).
func DecodeUpdateBatch(payload []byte, s *Scratch) (BatchMode, []graph.Update, error) {
	if s == nil {
		s = new(Scratch)
	}
	s.r.Reset(payload, len(payload)*8)
	m, err := s.r.ReadUint(2)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if BatchMode(m) > ModeQueue {
		return 0, nil, fmt.Errorf("%w: batch mode %d", ErrBadPayload, m)
	}
	count, err := s.r.ReadVar()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	// Every update costs at least 8 bits, so count is bounded by the
	// payload size — a corrupt count cannot force a giant allocation.
	if count > uint64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: update count %d exceeds payload", ErrBadPayload, count)
	}
	if cap(s.ups) < int(count) {
		s.ups = make([]graph.Update, count)
	}
	ups := s.ups[:count]
	for i := range ups {
		op, err := s.r.ReadUint(2)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		u := graph.Update{Op: graph.Op(op)}
		if !u.Op.Valid() {
			return 0, nil, fmt.Errorf("%w: op %d", ErrBadPayload, op)
		}
		a, err := s.r.ReadVarInt()
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		u.A = graph.ID(a)
		if u.Op != graph.OpAddNode {
			b, err := s.r.ReadVarInt()
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
			}
			u.B = graph.ID(b)
		}
		ups[i] = u
	}
	return BatchMode(m), ups, nil
}

// EncodeBatchAck encodes an update-batch response as a complete frame.
func EncodeBatchAck(a *BatchAck) ([]byte, error) {
	return encodeFrame(KindBatchAck, func(w *bits.Writer) error {
		if err := writeNonNeg(w, a.Queued, "queued"); err != nil {
			return err
		}
		if err := writeNonNeg(w, a.Pending, "pending"); err != nil {
			return err
		}
		if err := w.WriteVar(uint64(a.Elapsed)); err != nil {
			return err
		}
		w.WriteBit(a.Report != nil)
		if a.Report != nil {
			return writeReport(w, a.Report)
		}
		return nil
	})
}

// DecodeBatchAck decodes a batch-ack payload.
func DecodeBatchAck(payload []byte) (*BatchAck, error) {
	r := bits.NewReader(payload, len(payload)*8)
	var a BatchAck
	q, err := r.ReadVar()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	p, err := r.ReadVar()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	e, err := r.ReadVar()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	a.Queued, a.Pending, a.Elapsed = int(q), int(p), time.Duration(e)
	has, err := r.ReadBit()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if has {
		if a.Report, err = readReport(r, len(payload)); err != nil {
			return nil, err
		}
	}
	return &a, nil
}

// EncodeEvent encodes one watch event (a versioned session report) as a
// complete frame.
func EncodeEvent(version uint64, rep *report.SessionReport) ([]byte, error) {
	return encodeFrame(KindEvent, func(w *bits.Writer) error {
		if err := w.WriteVar(version); err != nil {
			return err
		}
		return writeReport(w, rep)
	})
}

// DecodeEvent decodes a watch-event payload.
func DecodeEvent(payload []byte) (uint64, *report.SessionReport, error) {
	r := bits.NewReader(payload, len(payload)*8)
	version, err := r.ReadVar()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	rep, err := readReport(r, len(payload))
	if err != nil {
		return 0, nil, err
	}
	return version, rep, nil
}

// EncodeHello encodes the watch-stream opening frame.
func EncodeHello(h Hello) ([]byte, error) {
	return encodeFrame(KindHello, func(w *bits.Writer) error {
		if err := w.WriteVar(h.Subscription); err != nil {
			return err
		}
		if err := w.WriteVar(h.Version); err != nil {
			return err
		}
		if err := w.WriteVar(h.ResumeFrom); err != nil {
			return err
		}
		w.WriteBit(h.Reset)
		return nil
	})
}

// DecodeHello decodes a hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	r := bits.NewReader(payload, len(payload)*8)
	var h Hello
	var err error
	if h.Subscription, err = r.ReadVar(); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if h.Version, err = r.ReadVar(); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if h.ResumeFrom, err = r.ReadVar(); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if h.Reset, err = r.ReadBit(); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return h, nil
}

// EncodeAck encodes a subscription acknowledgement frame: the client
// has applied every event up to and including version.
func EncodeAck(sub, version uint64) ([]byte, error) {
	return encodeFrame(KindAck, func(w *bits.Writer) error {
		if err := w.WriteVar(sub); err != nil {
			return err
		}
		return w.WriteVar(version)
	})
}

// DecodeAck decodes an ack payload.
func DecodeAck(payload []byte) (sub, version uint64, err error) {
	r := bits.NewReader(payload, len(payload)*8)
	if sub, err = r.ReadVar(); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if version, err = r.ReadVar(); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return sub, version, nil
}

// EncodeNack encodes a subscription rejection frame: the client could
// not apply the event at version; replay after reconnect restarts
// before it.
func EncodeNack(sub, version uint64, reason string) ([]byte, error) {
	return encodeFrame(KindNack, func(w *bits.Writer) error {
		if err := w.WriteVar(sub); err != nil {
			return err
		}
		if err := w.WriteVar(version); err != nil {
			return err
		}
		return writeString(w, reason)
	})
}

// DecodeNack decodes a nack payload.
func DecodeNack(payload []byte) (sub, version uint64, reason string, err error) {
	r := bits.NewReader(payload, len(payload)*8)
	if sub, err = r.ReadVar(); err != nil {
		return 0, 0, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if version, err = r.ReadVar(); err != nil {
		return 0, 0, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if reason, err = readString(r, len(payload)); err != nil {
		return 0, 0, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return sub, version, reason, nil
}

// EncodeError encodes a failure frame carrying an HTTP-style status
// code and a message.
func EncodeError(code int, msg string) ([]byte, error) {
	return encodeFrame(KindError, func(w *bits.Writer) error {
		if err := writeNonNeg(w, code, "code"); err != nil {
			return err
		}
		return writeString(w, msg)
	})
}

// DecodeError decodes an error payload.
func DecodeError(payload []byte) (code int, msg string, err error) {
	r := bits.NewReader(payload, len(payload)*8)
	c, err := r.ReadVar()
	if err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if msg, err = readString(r, len(payload)); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return int(c), msg, nil
}

// writeReport encodes a session report record. Field order is part of
// the frozen format; see the golden tests.
func writeReport(w *bits.Writer, rep *report.SessionReport) error {
	if err := w.WriteVar(rep.Generation); err != nil {
		return err
	}
	if err := writeString(w, rep.Mode); err != nil {
		return err
	}
	if err := writeString(w, string(rep.ActiveScheme)); err != nil {
		return err
	}
	if err := writeNonNeg(w, rep.Updates, "updates"); err != nil {
		return err
	}
	if err := writeNonNeg(w, rep.Dirty, "dirty"); err != nil {
		return err
	}
	if err := writeNonNeg(w, rep.Verified, "verified"); err != nil {
		return err
	}
	w.WriteBit(rep.FullVerify)
	w.WriteBit(rep.Accepted)
	if err := w.WriteVar(rep.CacheGeneration); err != nil {
		return err
	}
	if err := writeString(w, rep.RepairFallback); err != nil {
		return err
	}
	if err := writeString(w, rep.ProveErr); err != nil {
		return err
	}
	w.WriteBit(rep.Verification != nil)
	if rep.Verification == nil {
		return nil
	}
	v := rep.Verification
	w.WriteBit(v.Accepted)
	if err := writeNonNeg(w, v.MaxCertBits, "max_cert_bits"); err != nil {
		return err
	}
	if err := w.WriteUint(math.Float64bits(v.AvgCertBits), 64); err != nil {
		return err
	}
	if err := writeNonNeg(w, v.Messages, "messages"); err != nil {
		return err
	}
	if err := writeNonNeg(w, v.MaxMsgBits, "max_msg_bits"); err != nil {
		return err
	}
	if err := w.WriteVar(uint64(len(v.Rejecting))); err != nil {
		return err
	}
	for _, id := range v.Rejecting {
		if err := w.WriteVarInt(int64(id)); err != nil {
			return err
		}
	}
	// Reasons go out in ascending ID order, so equal reports always
	// produce identical bytes.
	if err := w.WriteVar(uint64(len(v.Reasons))); err != nil {
		return err
	}
	for _, id := range slices.Sorted(maps.Keys(v.Reasons)) {
		if err := w.WriteVarInt(int64(id)); err != nil {
			return err
		}
		if err := writeString(w, v.Reasons[id]); err != nil {
			return err
		}
	}
	return nil
}

// readReport decodes a session report record. limit bounds list sizes
// against the payload length so corrupt counts cannot allocate wildly.
func readReport(r *bits.Reader, limit int) (*report.SessionReport, error) {
	var rep report.SessionReport
	var err error
	fail := func(err error) (*report.SessionReport, error) {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if rep.Generation, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	if rep.Mode, err = readString(r, limit); err != nil {
		return fail(err)
	}
	scheme, err := readString(r, limit)
	if err != nil {
		return fail(err)
	}
	rep.ActiveScheme = report.SchemeName(scheme)
	var u uint64
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	rep.Updates = int(u)
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	rep.Dirty = int(u)
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	rep.Verified = int(u)
	if rep.FullVerify, err = r.ReadBit(); err != nil {
		return fail(err)
	}
	if rep.Accepted, err = r.ReadBit(); err != nil {
		return fail(err)
	}
	if rep.CacheGeneration, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	if rep.RepairFallback, err = readString(r, limit); err != nil {
		return fail(err)
	}
	if rep.ProveErr, err = readString(r, limit); err != nil {
		return fail(err)
	}
	has, err := r.ReadBit()
	if err != nil {
		return fail(err)
	}
	if !has {
		return &rep, nil
	}
	var v report.Report
	if v.Accepted, err = r.ReadBit(); err != nil {
		return fail(err)
	}
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	v.MaxCertBits = int(u)
	if u, err = r.ReadUint(64); err != nil {
		return fail(err)
	}
	v.AvgCertBits = math.Float64frombits(u)
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	v.Messages = int(u)
	if u, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	v.MaxMsgBits = int(u)
	n, err := r.ReadVar()
	if err != nil {
		return fail(err)
	}
	// Every list entry costs at least 6 bits; 2x the payload byte count
	// over-approximates the densest possible packing.
	if n > uint64(2*limit) {
		return nil, fmt.Errorf("%w: rejecting count %d exceeds payload", ErrBadPayload, n)
	}
	if n > 0 {
		v.Rejecting = make([]graph.ID, n)
		for i := range v.Rejecting {
			id, err := r.ReadVarInt()
			if err != nil {
				return fail(err)
			}
			v.Rejecting[i] = graph.ID(id)
		}
	}
	if n, err = r.ReadVar(); err != nil {
		return fail(err)
	}
	if n > uint64(2*limit) {
		return nil, fmt.Errorf("%w: reason count %d exceeds payload", ErrBadPayload, n)
	}
	if n > 0 {
		// The encoder writes reason IDs strictly increasing; anything else
		// is a corrupt (or non-canonical) record, not a map to fold.
		v.Reasons = make(map[graph.ID]string, n)
		var prev int64
		for i := uint64(0); i < n; i++ {
			id, err := r.ReadVarInt()
			if err != nil {
				return fail(err)
			}
			if i > 0 && id <= prev {
				return nil, fmt.Errorf("%w: reason id %d after %d", ErrBadPayload, id, prev)
			}
			prev = id
			if v.Reasons[graph.ID(id)], err = readString(r, limit); err != nil {
				return fail(err)
			}
		}
	}
	rep.Verification = &v
	return &rep, nil
}
