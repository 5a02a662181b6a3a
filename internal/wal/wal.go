package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"

	"github.com/planarcert/planarcert/internal/graph"
)

// Op identifies one kind of logged topology update. The numeric values
// are part of the on-disk format and must never be reused.
type Op byte

// Logged update operations.
const (
	// OpAddEdge logs an edge insertion between A and B.
	OpAddEdge Op = 1
	// OpRemoveEdge logs an edge removal between A and B.
	OpRemoveEdge Op = 2
	// OpAddNode logs a node addition; only A is meaningful.
	OpAddNode Op = 3
)

// Update is one logged topology update; OpAddNode uses only A.
type Update struct {
	// Op is the operation kind.
	Op Op
	// A and B are node identifiers; OpAddNode uses only A.
	A, B int64
}

// FromGraph converts in-memory updates to their logged form. The
// frozen logged codes are the graph.Op values plus one.
func FromGraph(ups []graph.Update) []Update {
	out := make([]Update, len(ups))
	for i, u := range ups {
		out[i] = Update{Op: Op(u.Op) + 1, A: int64(u.A), B: int64(u.B)}
	}
	return out
}

// ToGraph converts logged updates back to their in-memory form (the
// inverse of FromGraph on every op a decoded record can carry).
func ToGraph(ups []Update) []graph.Update {
	out := make([]graph.Update, len(ups))
	for i, u := range ups {
		out[i] = graph.Update{Op: graph.Op(u.Op - 1), A: graph.ID(u.A), B: graph.ID(u.B)}
	}
	return out
}

// Batch is one WAL record: an update batch tagged with its strictly
// monotonic sequence number.
type Batch struct {
	// Seq is the batch sequence number (1-based; 0 means "before the
	// first record" and is reserved for snapshots of a fresh session).
	Seq uint64
	// Updates are the batch's updates in application order.
	Updates []Update
}

// SyncPolicy says when the log flushes to stable storage.
type SyncPolicy int

// Supported fsync policies.
const (
	// SyncAlways fsyncs after every appended record: an acked batch
	// survives power loss, at the cost of one fsync per batch.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS page cache: an acked batch
	// survives a crashed or killed process but not power loss.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "never", "off", "none":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always or never)", s)
	}
}

const (
	logMagic   = "PCERTWAL"
	logVersion = 1
	// logHeaderSize is the fixed file header: magic + uint32 version.
	logHeaderSize = len(logMagic) + 4
	// recordHeaderSize prefixes every record: uint32 payload length +
	// uint32 CRC32 of the payload.
	recordHeaderSize = 8
	// maxRecordBytes bounds one record's payload, so a corrupt length
	// field cannot drive a giant allocation during replay.
	maxRecordBytes = 1 << 26
)

// ErrCorrupt marks data rejected by replay or decoding: a torn record,
// a failed CRC, a sequence regression, or a malformed payload.
var ErrCorrupt = errors.New("wal: corrupt record")

// ReplayStats summarises one log replay.
type ReplayStats struct {
	// Records counts the valid records decoded.
	Records int
	// CorruptRecords counts records rejected (replay stops at the first
	// one, so this is 0 or 1 per replay; recovery aggregates them).
	CorruptRecords int
	// Truncated reports whether the log ended in a torn or corrupt
	// record that was (or must be) cut off.
	Truncated bool
	// GoodBytes is the file offset just past the last valid record.
	GoodBytes int64
}

// Log is an append-only write-ahead log of update batches. It is not
// safe for concurrent use; planarcertd serializes access per session.
type Log struct {
	f       *os.File
	path    string
	policy  SyncPolicy
	lastSeq uint64
	size    int64
}

// encodePayload renders one record payload: seq, update count, updates.
func encodePayload(seq uint64, updates []Update) []byte {
	buf := make([]byte, 0, 8+binary.MaxVarintLen64+len(updates)*(1+2*binary.MaxVarintLen64))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(updates)))
	for _, u := range updates {
		buf = append(buf, byte(u.Op))
		buf = binary.AppendVarint(buf, u.A)
		buf = binary.AppendVarint(buf, u.B)
	}
	return buf
}

// decodePayload parses one record payload.
func decodePayload(p []byte) (Batch, error) {
	if len(p) < 8 {
		return Batch{}, fmt.Errorf("%w: payload shorter than its sequence number", ErrCorrupt)
	}
	b := Batch{Seq: binary.LittleEndian.Uint64(p)}
	p = p[8:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(maxRecordBytes) {
		return Batch{}, fmt.Errorf("%w: bad update count", ErrCorrupt)
	}
	p = p[n:]
	b.Updates = make([]Update, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return Batch{}, fmt.Errorf("%w: truncated update", ErrCorrupt)
		}
		u := Update{Op: Op(p[0])}
		if u.Op != OpAddEdge && u.Op != OpRemoveEdge && u.Op != OpAddNode {
			return Batch{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, p[0])
		}
		p = p[1:]
		a, n := binary.Varint(p)
		if n <= 0 {
			return Batch{}, fmt.Errorf("%w: bad endpoint A", ErrCorrupt)
		}
		p = p[n:]
		bb, n := binary.Varint(p)
		if n <= 0 {
			return Batch{}, fmt.Errorf("%w: bad endpoint B", ErrCorrupt)
		}
		p = p[n:]
		u.A, u.B = a, bb
		b.Updates = append(b.Updates, u)
	}
	if len(p) != 0 {
		return Batch{}, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return b, nil
}

// DecodeRecords walks the record stream that follows the file header,
// stopping at the first torn or corrupt record. It never fails: corrupt
// data is reported through the stats, and everything before it is
// returned.
func DecodeRecords(data []byte) ([]Batch, ReplayStats) {
	var (
		batches []Batch
		stats   ReplayStats
		off     int64
		lastSeq uint64
	)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			break // clean end
		}
		if len(rest) < recordHeaderSize {
			stats.Truncated = true
			stats.CorruptRecords++
			break
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length == 0 || length > maxRecordBytes || int(length) > len(rest)-recordHeaderSize {
			stats.Truncated = true
			stats.CorruptRecords++
			break
		}
		payload := rest[recordHeaderSize : recordHeaderSize+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			stats.Truncated = true
			stats.CorruptRecords++
			break
		}
		b, err := decodePayload(payload)
		if err != nil || b.Seq <= lastSeq {
			stats.Truncated = true
			stats.CorruptRecords++
			break
		}
		lastSeq = b.Seq
		off += int64(recordHeaderSize) + int64(length)
		stats.Records++
		stats.GoodBytes = off
		batches = append(batches, b)
	}
	return batches, stats
}

// OpenLog opens (or creates) the log at path, replays every valid
// record, truncates the file after the last one, and positions it for
// appending. A file whose header is unreadable is preserved under a
// ".corrupt" suffix and replaced by a fresh log.
func OpenLog(path string, policy SyncPolicy) (*Log, []Batch, ReplayStats, error) {
	raw, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, ReplayStats{}, err
	}
	var (
		batches []Batch
		stats   ReplayStats
	)
	fresh := errors.Is(err, fs.ErrNotExist)
	if !fresh {
		if len(raw) < logHeaderSize || string(raw[:len(logMagic)]) != logMagic ||
			binary.LittleEndian.Uint32(raw[len(logMagic):]) != logVersion {
			// Unrecognisable header: keep the bytes aside for forensics and
			// start over. Nothing in it is trustworthy enough to replay.
			if renameErr := os.Rename(path, path+".corrupt"); renameErr != nil {
				return nil, nil, ReplayStats{}, renameErr
			}
			fresh = true
			stats.CorruptRecords++
			stats.Truncated = true
		} else {
			batches, stats = DecodeRecords(raw[logHeaderSize:])
			stats.GoodBytes += int64(logHeaderSize)
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, ReplayStats{}, err
	}
	l := &Log{f: f, path: path, policy: policy}
	if fresh {
		if err := l.writeHeader(); err != nil {
			f.Close()
			return nil, nil, ReplayStats{}, err
		}
	} else {
		// Cut off the torn tail so the next append starts on a record
		// boundary.
		if err := f.Truncate(stats.GoodBytes); err != nil {
			f.Close()
			return nil, nil, ReplayStats{}, err
		}
		if _, err := f.Seek(stats.GoodBytes, 0); err != nil {
			f.Close()
			return nil, nil, ReplayStats{}, err
		}
		l.size = stats.GoodBytes
	}
	if len(batches) > 0 {
		l.lastSeq = batches[len(batches)-1].Seq
	}
	return l, batches, stats, nil
}

// writeHeader resets the file to a fresh, empty log.
func (l *Log) writeHeader() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return err
	}
	hdr := make([]byte, 0, logHeaderSize)
	hdr = append(hdr, logMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, logVersion)
	if _, err := l.f.Write(hdr); err != nil {
		return err
	}
	l.size = int64(logHeaderSize)
	if l.policy == SyncAlways {
		return l.f.Sync()
	}
	return nil
}

// Append logs one batch. seq must exceed every previously appended or
// replayed sequence number. Under SyncAlways the record is on stable
// storage when Append returns.
func (l *Log) Append(seq uint64, updates []Update) error {
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: non-monotonic sequence %d (last %d)", seq, l.lastSeq)
	}
	payload := encodePayload(seq, updates)
	rec := make([]byte, 0, recordHeaderSize+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	l.size += int64(len(rec))
	l.lastSeq = seq
	if l.policy == SyncAlways {
		return l.f.Sync()
	}
	return nil
}

// LastSeq returns the highest sequence number appended or replayed.
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// Advance raises the sequence floor without writing (used when a loaded
// snapshot is newer than every log record).
func (l *Log) Advance(seq uint64) {
	if seq > l.lastSeq {
		l.lastSeq = seq
	}
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 { return l.size }

// ResetIfCovered empties the log when every record is covered by a
// snapshot at seq (log compaction: the snapshot now carries the state).
func (l *Log) ResetIfCovered(seq uint64) error {
	if seq < l.lastSeq {
		return nil
	}
	if err := l.writeHeader(); err != nil {
		return err
	}
	l.Advance(seq)
	return nil
}

// Sync forces the log to stable storage regardless of policy.
func (l *Log) Sync() error { return l.f.Sync() }

// Close syncs and closes the underlying file.
func (l *Log) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
