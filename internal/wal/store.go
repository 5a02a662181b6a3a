package wal

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// snapKeep is the number of most-recent snapshots retained after a new
// one lands: the newest plus one fallback.
const snapKeep = 2

// Recovered is the durable state reconstructed when a session store is
// opened: the newest valid snapshot (if any) and the WAL tail past it.
type Recovered struct {
	// Snapshot is the newest snapshot that decoded cleanly; nil when the
	// directory holds none.
	Snapshot *Snapshot
	// Tail holds the WAL batches with Seq > Snapshot.Seq (all valid
	// batches when Snapshot is nil), in sequence order.
	Tail []Batch
	// Stats summarises the WAL replay.
	Stats ReplayStats
	// SnapshotsDiscarded counts snapshot files that failed to decode and
	// were skipped in favour of an older one.
	SnapshotsDiscarded int
}

// Store manages one session's durable state: its write-ahead log and
// snapshot files inside a single directory. Not safe for concurrent
// use; planarcertd serializes access per session.
type Store struct {
	dir    string
	policy SyncPolicy
	log    *Log
}

// OpenStore opens (creating if needed) a session directory, loads the
// newest valid snapshot, replays the WAL, and returns the recovered
// state with the store positioned for appending.
func OpenStore(dir string, policy SyncPolicy) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec := &Recovered{}

	names, err := snapshotFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	// Newest first; fall back across corrupt files. The cursor moves
	// past every discarded file's sequence, so that the snapshot which
	// supersedes it sorts newer even when the log was compacted.
	var floor uint64
	for i := len(names) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(filepath.Join(dir, names[i]))
		var snap *Snapshot
		if err == nil {
			snap, err = DecodeSnapshot(raw)
		}
		if err == nil {
			rec.Snapshot = snap
			break
		}
		rec.SnapshotsDiscarded++
		seq, _ := snapshotSeq(names[i]) // snapshotFiles lists parsed names only
		floor = max(floor, seq+1)
	}

	log, batches, stats, err := OpenLog(filepath.Join(dir, "wal.log"), policy)
	if err != nil {
		return nil, nil, err
	}
	rec.Stats = stats
	var snapSeq uint64
	if rec.Snapshot != nil {
		snapSeq = rec.Snapshot.Seq
	}
	for _, b := range batches {
		if b.Seq > snapSeq {
			rec.Tail = append(rec.Tail, b)
		}
	}
	// A snapshot newer than every log record (log was compacted) must
	// still advance the append cursor.
	log.Advance(max(snapSeq, floor))
	return &Store{dir: dir, policy: policy, log: log}, rec, nil
}

// snapshotFiles lists the directory's snapshot files sorted by
// ascending sequence number.
func snapshotFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type snapFile struct {
		name string
		seq  uint64
	}
	var files []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, ok := snapshotSeq(name)
		if !ok {
			continue // not ours; ignore
		}
		files = append(files, snapFile{name: name, seq: seq})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].seq != files[j].seq {
			return files[i].seq < files[j].seq
		}
		return files[i].name < files[j].name
	})
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.name
	}
	return out, nil
}

// snapshotSeq parses the sequence number out of a snapshot file name.
func snapshotSeq(name string) (uint64, bool) {
	parts := strings.SplitN(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), "-", 2)
	seq, err := strconv.ParseUint(parts[0], 10, 64)
	return seq, err == nil
}

// NextSeq returns the sequence number the next appended batch must use.
func (st *Store) NextSeq() uint64 { return st.log.LastSeq() + 1 }

// LastSeq returns the highest durable sequence number.
func (st *Store) LastSeq() uint64 { return st.log.LastSeq() }

// AppendBatch logs one update batch under the given sequence number.
// Under SyncAlways the batch is durable when AppendBatch returns — the
// caller acks only after this succeeds (log-before-ack).
func (st *Store) AppendBatch(seq uint64, updates []Update) error {
	return st.log.Append(seq, updates)
}

// WriteSnapshot atomically persists a snapshot (write to a temporary
// file, fsync, rename), prunes old snapshots beyond the retained pair,
// and compacts the WAL when the snapshot covers its whole tail.
func (st *Store) WriteSnapshot(s *Snapshot) error {
	raw := EncodeSnapshot(s)
	final := filepath.Join(st.dir, fmt.Sprintf("snap-%020d-%016x%016x.snap", s.Seq, s.FingerprintHi, s.FingerprintLo))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if st.policy == SyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if st.policy == SyncAlways {
		if err := syncDir(st.dir); err != nil {
			return err
		}
	}
	if err := st.pruneSnapshots(); err != nil {
		return err
	}
	return st.log.ResetIfCovered(s.Seq)
}

// pruneSnapshots removes all but the newest snapKeep snapshot files.
func (st *Store) pruneSnapshots() error {
	names, err := snapshotFiles(st.dir)
	if err != nil {
		return err
	}
	for len(names) > snapKeep {
		if err := os.Remove(filepath.Join(st.dir, names[0])); err != nil {
			return err
		}
		names = names[1:]
	}
	return nil
}

// Sync forces the WAL to stable storage regardless of policy.
func (st *Store) Sync() error { return st.log.Sync() }

// Close syncs and closes the store's log.
func (st *Store) Close() error { return st.log.Close() }

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if closeErr := d.Close(); err == nil {
		err = closeErr
	}
	return err
}

// Root manages the daemon's data directory: one session store per
// subdirectory of <dir>/sessions.
type Root struct {
	dir    string
	policy SyncPolicy
}

// OpenRoot opens (creating if needed) the data directory.
func OpenRoot(dir string, policy SyncPolicy) (*Root, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sessions"), 0o755); err != nil {
		return nil, err
	}
	return &Root{dir: dir, policy: policy}, nil
}

// Dir returns the data directory path.
func (r *Root) Dir() string { return r.dir }

// SessionDirs lists the existing session directories (absolute paths).
func (r *Root) SessionDirs() ([]string, error) {
	base := filepath.Join(r.dir, "sessions")
	entries, err := os.ReadDir(base)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, filepath.Join(base, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// sessionDirName maps a session name to a filesystem-safe directory
// name. Plain names keep their spelling under an "s-" prefix; anything
// else is hex-encoded under the disjoint "x-" prefix, so distinct names
// can never collide.
func sessionDirName(name string) string {
	safe := len(name) > 0 && len(name) <= 100
	for i := 0; safe && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			safe = false
		}
	}
	if safe {
		return "s-" + name
	}
	return "x-" + hex.EncodeToString([]byte(name))
}

// SessionDir returns the directory path a session name maps to.
func (r *Root) SessionDir(name string) string {
	return filepath.Join(r.dir, "sessions", sessionDirName(name))
}

// CreateSession wipes any stale state for the name and opens a fresh
// store for it.
func (r *Root) CreateSession(name string) (*Store, error) {
	dir := r.SessionDir(name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, _, err := OpenStore(dir, r.policy)
	return st, err
}

// OpenSession opens the store for an existing session name, recovering
// its durable state.
func (r *Root) OpenSession(name string) (*Store, *Recovered, error) {
	return OpenStore(r.SessionDir(name), r.policy)
}

// RemoveSession deletes a session's durable state.
func (r *Root) RemoveSession(name string) error {
	dir := r.SessionDir(name)
	if _, err := os.Stat(dir); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return os.RemoveAll(dir)
}
