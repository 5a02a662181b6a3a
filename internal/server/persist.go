package server

import (
	"fmt"
	"math"
	"sort"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/wal"
)

// Recover opens the configured data directory and restores every
// persisted session: the newest valid snapshot is decoded, its network
// is cross-checked against the stored topology fingerprint, and the
// session is restored at the snapshot point via
// planarcert.RestoreSession — whose full verification sweep is the
// self-validation step: certificates corrupted in any way the CRCs
// missed are caught semantically and the session re-proves. The WAL
// tail past the snapshot is then replayed through the live session, so
// incremental repair absorbs it at update cost instead of forcing a
// full re-prove of the final topology. A tail that replays cleanly
// stays in the log until the session's next periodic snapshot; only a
// damaged directory is folded into a fresh snapshot at boot.
//
// Recover must be called once, before serving traffic, when
// Config.DataDir is set; the /v1/sessions endpoints answer 503 and
// /readyz reports not-ready until it returns. A session directory that
// cannot be restored is counted and skipped — it never blocks boot —
// and its files are left in place for forensics. On a server without a
// DataDir, Recover only marks the server ready.
func (s *Server) Recover() error {
	if s.cfg.DataDir == "" {
		s.ready.Store(true)
		return nil
	}
	start := time.Now()
	root, err := wal.OpenRoot(s.cfg.DataDir, s.cfg.Fsync)
	if err != nil {
		return err
	}
	s.root = root
	dirs, err := root.SessionDirs()
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		if err := s.recoverSession(dir); err != nil {
			s.met.recoveryFailed.Add(1)
		}
	}
	s.met.recoverySecsBits.Store(math.Float64bits(time.Since(start).Seconds()))
	s.ready.Store(true)
	return nil
}

// recoverSession restores one session directory and registers the
// result. Errors mean the directory held nothing restorable (or the
// registry rejected the session); the caller counts and skips it.
//
// The decoded snapshot is handed to RestoreSession as it is: its graph
// and certificates become the session's own, uncopied.
func (s *Server) recoverSession(dir string) error {
	st, rec, err := wal.OpenStore(dir, s.cfg.Fsync)
	if err != nil {
		return err
	}
	s.met.walReplayed.Add(uint64(rec.Stats.Records))
	s.met.walCorrupt.Add(uint64(rec.Stats.CorruptRecords + rec.SnapshotsDiscarded))
	snap := rec.Snapshot
	if snap == nil {
		// The process died before the session's first snapshot landed;
		// with nothing to anchor the WAL to, the directory is unrestorable.
		st.Close()
		return fmt.Errorf("server: no valid snapshot in %s", dir)
	}
	net, err := networkOf(snap)
	if err != nil {
		st.Close()
		return fmt.Errorf("server: snapshot graph in %s: %w", dir, err)
	}
	popts := persistOpts{
		repairThreshold: int(snap.RepairThreshold),
		cacheSize:       int(snap.CacheSize),
		noFlip:          snap.NoFlip,
	}
	// Restore at the snapshot point: the verification sweep checks the
	// certificates against the exact topology they were written for, so
	// a clean snapshot is accepted without re-proving. The snapshot
	// format is frozen and carries no QoS class, so restored sessions
	// run in the server's default class.
	ps, err := planarcert.RestoreSession(&planarcert.SessionSnapshot{
		Scheme:       planarcert.SchemeName(snap.Scheme),
		ActiveScheme: planarcert.SchemeName(snap.ActiveScheme),
		Generation:   snap.Generation,
		Network:      net,
		Certificates: certificatesOf(snap.Certs),
	}, s.engineFor(snap.Name, s.defaultQoS), popts.options()...)
	if err != nil {
		st.Close()
		return fmt.Errorf("server: restore %q: %w", snap.Name, err)
	}
	if hi, lo := ps.Fingerprint(); hi != snap.FingerprintHi || lo != snap.FingerprintLo {
		// The body CRC passed but the graph does not hash to its key:
		// treat it like any other corrupt snapshot. The restored session
		// hashed the graph once already, so the check reads its key.
		st.Close()
		s.met.walCorrupt.Add(1)
		return fmt.Errorf("server: snapshot fingerprint mismatch in %s", dir)
	}

	// Replay the WAL tail through the live session, exactly as when each
	// batch was acked. The first tail batch decodes the repair state from
	// the restored certificates, so the tail repairs incrementally as it
	// did live, and a clean-shutdown boot (empty tail) restores on the
	// verification sweep alone.
	applied, tailCorrupt := 0, false
	for _, b := range rec.Tail {
		if _, err := ps.Apply(wal.ToGraph(b.Updates)); err != nil {
			// A logged batch was valid when acked, so this only happens if
			// corruption slipped past the CRCs; keep the prefix that
			// applied cleanly.
			s.met.walCorrupt.Add(1)
			tailCorrupt = true
			break
		}
		applied++
	}

	ms := s.newSession(snap.Name, planarcert.SchemeName(snap.Scheme), s.defaultQoS, ps, popts)
	ms.store = st
	// A clean tail stays in the log, which OpenLog has cut back to a
	// record boundary: the next append follows it, and the session's
	// next periodic snapshot compacts it.
	ms.sinceSnap = applied

	s.mu.Lock()
	if s.closing || s.sessions[snap.Name] != nil || len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		st.Close()
		return fmt.Errorf("server: cannot register restored session %q", snap.Name)
	}
	s.sessions[snap.Name] = ms
	s.mu.Unlock()

	// A damaged directory is folded into a fresh snapshot, so the next
	// boot starts from it and the WAL compacts to empty: a tail batch
	// that failed to apply would fail again, and a corrupt record or a
	// discarded snapshot must be superseded.
	if tailCorrupt || rec.Stats.CorruptRecords > 0 || rec.SnapshotsDiscarded > 0 {
		ms.mu.Lock()
		_ = ms.writeSnapshotLocked()
		ms.mu.Unlock()
	}

	s.met.sessionsRestored.Add(1)
	return nil
}

// networkOf materialises a snapshot's graph in one pass; a duplicate
// node or edge, a self-loop or an unknown endpoint is refused.
func networkOf(snap *wal.Snapshot) (*planarcert.Network, error) {
	g, err := graph.Build(snap.Nodes, snap.Edges)
	if err != nil {
		return nil, err
	}
	return planarcert.FromGraph(g), nil
}

// walNodes lists a network's node identifiers in sorted order, so
// snapshot bytes are deterministic for a given topology.
func walNodes(net *planarcert.Network) []int64 {
	ids := net.IDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// walEdges lists a network's edges, each smaller-endpoint-first, in
// lexicographic order.
func walEdges(net *planarcert.Network) [][2]int64 {
	edges := net.Edges()
	out := make([][2]int64, len(edges))
	for i, e := range edges {
		out[i] = [2]int64{int64(e[0]), int64(e[1])}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// walCerts converts a certificate assignment to its snapshot form
// (EncodeSnapshot sorts by node).
func walCerts(certs planarcert.Certificates) []wal.NodeCert {
	out := make([]wal.NodeCert, 0, len(certs))
	for id, c := range certs {
		out = append(out, wal.NodeCert{ID: int64(id), Bits: int64(c.Bits), Data: c.Data})
	}
	return out
}

// certificatesOf rebuilds an assignment from its snapshot form.
func certificatesOf(in []wal.NodeCert) planarcert.Certificates {
	if len(in) == 0 {
		return nil
	}
	out := make(planarcert.Certificates, len(in))
	for _, c := range in {
		out[planarcert.NodeID(c.ID)] = planarcert.Certificate{Data: c.Data, Bits: int(c.Bits)}
	}
	return out
}
