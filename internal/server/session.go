package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/qos"
	"github.com/planarcert/planarcert/internal/wal"
	"github.com/planarcert/planarcert/internal/wire"
)

// session is one named, server-managed certification session: the
// concurrency-hardening wrapper that turns the single-goroutine
// planarcert.Session into something many HTTP handlers can share.
//
// Two locks with distinct scopes keep the fast paths apart:
//
//   - mu serializes every call into the underlying planarcert.Session
//     (queue, absorb, verify, snapshot). Holding it across absorb is
//     the point: batches from concurrent clients are absorbed one at a
//     time, in arrival order.
//   - watchMu guards only the watcher registry, so attaching or
//     detaching a watch stream never waits behind a long re-prove.
type session struct {
	name    string
	scheme  planarcert.SchemeName // scheme requested at creation
	created time.Time

	// qos is the session's QoS class, fixed at creation (the snapshot
	// format cannot carry it, so restored sessions get the server
	// default). execClaim is its claimant on the server's batch-admission
	// scheduler; both are set before the session is published and never
	// mutated afterwards.
	qos       qos.Class
	execClaim *qos.Claimant
	// lastUsed is the UnixNano of the last client batch/flush/verify,
	// the LRU eviction key. Atomic: handlers touch it without ms.mu.
	lastUsed atomic.Int64

	mu sync.Mutex
	s  *planarcert.Session
	// pendingLog mirrors the session's queued-but-unabsorbed update log,
	// so the WAL record of the next batch carries the FULL absorbed log,
	// including updates other clients queued earlier.
	pendingLog []planarcert.Update
	// shut is set once the session is shut down or deleted: from then on
	// it absorbs, queues and attaches nothing, so no batch that reaches
	// it is acked without being logged.
	shut bool

	// Durability (all guarded by mu; store == nil means the session is
	// not persisted).
	store     *wal.Store
	snapEvery int // logged batches between automatic snapshots
	sinceSnap int
	// logDirty marks a failed WAL append: the log file may end in torn
	// bytes, so further appends are unsafe until a snapshot resets it.
	// While set, every ack requires a successful snapshot instead.
	logDirty bool
	popts    persistOpts
	met      *metrics

	watchMu   sync.Mutex
	watchers  map[uint64]*watcher
	nextWatch uint64
	watchBuf  int
	// Version-acknowledged subscription state (all under watchMu).
	// lastVersion is the version of the newest broadcast event (the
	// session generation — strictly increasing across broadcasts); ring
	// retains the last ringCap events for replay-after-reconnect; subs
	// tracks each binary subscription's last ACKed version (NDJSON
	// streams carry no subscription).
	lastVersion uint64
	ring        []*watchEvent
	ringCap     int
	subs        map[uint64]*subAck
	nextSub     uint64

	// broadcastHook feeds delivery/drop counts to the server's metrics;
	// set once at construction (never mutated afterwards, so it needs no
	// lock).
	broadcastHook func(delivered, dropped int)
}

// watchEvent is one broadcast report, marshaled ONCE per format and
// fanned out as bytes to every watcher (the per-watcher re-marshal this
// replaces was the watch path's dominant cost at high fan-out). json
// and bin are filled lazily by encoded: only the formats with a live
// watcher (or a later replay) pay for encoding.
type watchEvent struct {
	version uint64
	rep     *planarcert.SessionReport
	json    []byte // NDJSON line including the trailing newline
	bin     []byte // complete binary event frame
}

// watcher is one attached watch stream.
type watcher struct {
	ch     chan *watchEvent
	binary bool
}

// subAck is the server-side cursor of one version-acknowledged
// subscription.
type subAck struct {
	acked uint64
}

// maxSubscriptions bounds the per-session subscription map; past it the
// oldest (smallest-id) subscription is dropped and its client falls
// back to a reset on resume.
const maxSubscriptions = 4096

// newSession wraps ps as the server-managed session name in QoS class
// class, wired into the server's metrics, snapshot policy, admission
// scheduler and watch settings. The caller attaches the store, if any,
// before the session can absorb a batch.
func (s *Server) newSession(name string, scheme planarcert.SchemeName, class qos.Class, ps *planarcert.Session, popts persistOpts) *session {
	ms := &session{
		name:        name,
		scheme:      scheme,
		created:     time.Now(),
		qos:         class,
		execClaim:   s.exec.Claimant(name, class),
		s:           ps,
		snapEvery:   s.cfg.SnapshotEvery,
		popts:       popts,
		met:         s.met,
		watchers:    make(map[uint64]*watcher),
		watchBuf:    s.cfg.WatchBuffer,
		ringCap:     s.cfg.ReplayEvents,
		subs:        make(map[uint64]*subAck),
		lastVersion: ps.Generation(),
		broadcastHook: func(delivered, dropped int) {
			s.met.watchEvents.Add(uint64(delivered))
			s.met.watchDropped.Add(uint64(dropped))
		},
	}
	ms.touch()
	return ms
}

// touch stamps the session as recently used (LRU eviction key).
func (ms *session) touch() { ms.lastUsed.Store(time.Now().UnixNano()) }

// persistOpts are the session options the durability layer carries in
// every snapshot, so a restored session is tuned like the original.
type persistOpts struct {
	repairThreshold int
	cacheSize       int
	noFlip          bool
}

func (o persistOpts) options() []planarcert.SessionOption {
	var opts []planarcert.SessionOption
	if o.repairThreshold != 0 {
		opts = append(opts, planarcert.WithRepairThreshold(o.repairThreshold))
	}
	if o.cacheSize != 0 {
		opts = append(opts, planarcert.WithCacheSize(o.cacheSize))
	}
	if o.noFlip {
		opts = append(opts, planarcert.WithoutFlip())
	}
	return opts
}

// errShutDown answers a batch or queue request that reached a session
// after it was shut down or deleted.
var errShutDown = errors.New("session is shut down")

// queue appends updates to the session's log without absorbing them.
// Both transports only yield in-range ops, so Queue cannot fail (it only
// rejects unknown ops).
func (ms *session) queue(updates []planarcert.Update) (pending int, err error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.shut {
		return 0, errShutDown
	}
	for _, u := range updates {
		if ms.s.Queue(u) == nil {
			ms.pendingLog = append(ms.pendingLog, u)
		}
	}
	return len(ms.pendingLog), nil
}

// persistBatchLocked makes one absorbed batch durable (log-before-ack):
// the caller has already applied it to the in-memory session and must
// not ack until this returns nil. The normal path appends one WAL
// record; every snapEvery-th record also writes a snapshot. If an
// append fails the log file may end in torn bytes, so the fallback
// writes a snapshot instead — it carries the batch's effect and resets
// the log — and the session stays in that mode until a snapshot lands.
func (ms *session) persistBatchLocked(updates []planarcert.Update) error {
	if ms.store == nil || (len(updates) == 0 && !ms.logDirty) {
		return nil
	}
	if !ms.logDirty && len(updates) > 0 {
		if err := ms.store.AppendBatch(ms.store.NextSeq(), wal.FromGraph(updates)); err == nil {
			ms.met.walAppends.Add(1)
			ms.sinceSnap++
			if ms.sinceSnap >= ms.snapEvery {
				// The batch is already durable in the log; a failed
				// periodic snapshot is retried at the next batch and must
				// not fail the ack.
				_ = ms.writeSnapshotLocked()
			}
			return nil
		}
		ms.logDirty = true
	}
	return ms.writeSnapshotLocked()
}

// writeSnapshotLocked persists the session's current state. After it
// returns nil the WAL has been compacted to empty (the snapshot carries
// everything) and a failed-append state, if any, is cleared.
func (ms *session) writeSnapshotLocked() error {
	if ms.store == nil {
		return nil
	}
	seq := ms.store.LastSeq()
	if ms.logDirty {
		// The state includes a batch that never reached the log; give the
		// snapshot the sequence number that batch would have used so its
		// file name stays strictly newer than the last good snapshot's.
		seq = ms.store.NextSeq()
	}
	snap := ms.s.Snapshot()
	hi, lo := ms.s.Fingerprint()
	ws := &wal.Snapshot{
		Name:            ms.name,
		Scheme:          string(ms.scheme),
		ActiveScheme:    string(snap.ActiveScheme),
		Generation:      snap.Generation,
		Seq:             seq,
		FingerprintHi:   hi,
		FingerprintLo:   lo,
		RepairThreshold: int64(ms.popts.repairThreshold),
		CacheSize:       int64(ms.popts.cacheSize),
		NoFlip:          ms.popts.noFlip,
		Nodes:           walNodes(snap.Network),
		Edges:           walEdges(snap.Network),
		Certs:           walCerts(snap.Certificates),
	}
	if err := ms.store.WriteSnapshot(ws); err != nil {
		return err
	}
	ms.sinceSnap = 0
	ms.logDirty = false
	ms.met.snapshotsWritten.Add(1)
	return nil
}

// absorb is the session's one batch step; the caller holds ms.mu.
// updates (nil for a flush) join the pending log, and the session
// absorbs the whole log as one batch. On a durable session the batch is
// logged as one WAL record before absorb returns (checkpoint adds a
// snapshot), and its
// report is then broadcast, still under ms.mu, so watchers receive
// reports in generation order even when batches race. The returned
// duration is the time spent inside the session (repair/re-prove +
// verification), excluding lock wait. sp may be nil (tracing off).
func (ms *session) absorb(updates []planarcert.Update, checkpoint bool, sp *obs.Span) (*planarcert.SessionReport, time.Duration, error) {
	if ms.shut {
		return nil, 0, errShutDown
	}
	// The WAL record carries the whole absorbed log; with nothing queued
	// (the common case) it is the request's own updates, uncopied.
	batch := updates
	if len(ms.pendingLog) > 0 {
		batch = append(ms.pendingLog, updates...)
		ms.pendingLog = nil
	}
	ms.s.Trace(sp)
	start := time.Now()
	rep, err := ms.s.Apply(updates)
	elapsed := time.Since(start)
	if err != nil {
		// Session rejects whole batches: the log was discarded with it.
		return nil, elapsed, err
	}
	pp := sp.Child(obs.SpanPersist)
	err = ms.persistBatchLocked(batch)
	if err != nil {
		pp.SetStr("error", err.Error())
	}
	pp.End()
	if err != nil {
		return nil, elapsed, &persistError{err}
	}
	if checkpoint {
		// An explicit flush is a client checkpoint: force a snapshot so
		// the durable state converges even on a mostly-queueing workload.
		_ = ms.writeSnapshotLocked()
	}
	ms.broadcast(rep)
	return rep, elapsed, nil
}

// persistError marks a batch that was applied in memory but could not
// be made durable; the handler maps it to 500 instead of 422.
type persistError struct{ err error }

func (e *persistError) Error() string { return "persist batch: " + e.err.Error() }
func (e *persistError) Unwrap() error { return e.err }

// verify re-runs the full 1-round verification.
func (ms *session) verify() (*planarcert.Report, time.Duration) {
	ms.mu.Lock()
	start := time.Now()
	rep := ms.s.Verify()
	elapsed := time.Since(start)
	ms.mu.Unlock()
	return rep, elapsed
}

// certificates snapshots the current assignment (deep copy).
func (ms *session) certificates() planarcert.Certificates {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.s.Certificates()
}

// network snapshots the live network (deep copy).
func (ms *session) network() *planarcert.Network {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.s.Network()
}

// status snapshots the session for the REST surface.
func (ms *session) status() *SessionStatus {
	ms.mu.Lock()
	st := &SessionStatus{
		Name:            ms.name,
		Scheme:          ms.scheme,
		ActiveScheme:    ms.s.ActiveScheme(),
		Nodes:           ms.s.N(),
		Edges:           ms.s.M(),
		Generation:      ms.s.Generation(),
		Certified:       ms.s.Certified(),
		Pending:         len(ms.pendingLog),
		Last:            ms.s.Last(),
		CreatedAt:       ms.created,
		QoS:             ms.qos.String(),
		RepairThreshold: ms.s.RepairThreshold(),
	}
	if ms.store != nil {
		st.Durable = true
		st.WalSeq = ms.store.LastSeq()
	}
	ms.mu.Unlock()
	ms.watchMu.Lock()
	st.Watchers = len(ms.watchers)
	ms.watchMu.Unlock()
	return st
}

// stream is one attached watch stream: the watcher id (for unwatch),
// what handleWatch writes on attach — the hello of a binary stream, then
// the replayed events already encoded for the stream's format — and the
// channel of live events.
type stream struct {
	id     uint64
	hello  wire.Hello
	replay [][]byte
	ch     <-chan *watchEvent
}

// subscribe attaches a watch stream in one ms.mu critical section:
// broadcasts also run under ms.mu, so no flush can slip between the
// replay snapshot and the registration — a replayed event is never
// duplicated on (or reordered against) the channel.
//
// A binary stream is a version-acknowledged subscription: sub == 0
// mints a fresh one; otherwise the stream resumes sub, replaying the
// ring events after its last ACKed version. When the ring no longer
// covers the gap (or sub is unknown or evicted), hello.Reset tells the
// client to re-sync full state and only the latest event is replayed.
// An NDJSON stream has no subscription and ignores sub. On a fresh
// stream of either format, replayLast replays the latest report first,
// so a watcher always has a starting state. ok is false once the
// session is shut down.
func (ms *session) subscribe(binary bool, sub uint64, replayLast bool) (st stream, ok bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.shut {
		return stream{}, false
	}
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	w := &watcher{ch: make(chan *watchEvent, ms.watchBuf), binary: binary}
	ms.nextWatch++
	ms.watchers[ms.nextWatch] = w
	st = stream{id: ms.nextWatch, ch: w.ch}

	var replay []*watchEvent
	fresh := true
	if binary {
		st.hello, replay, fresh = ms.resumeLocked(sub)
	}
	if len(replay) == 0 && (st.hello.Reset || (fresh && replayLast)) {
		// Nothing retained to replay: the session's own last report is
		// the baseline event.
		replay = []*watchEvent{{version: ms.lastVersion, rep: ms.s.Last()}}
	}
	for _, ev := range replay {
		if b := ev.encoded(binary); b != nil { // nil: the encode failed, skip the event
			st.replay = append(st.replay, b)
		}
	}
	return st, true
}

// resumeLocked resolves a binary stream's subscription: a tracked sub
// resumes from its last ACKed version (replaying the ring events after
// it), anything else mints a fresh subscription — with Reset when the
// client asked to resume one the server no longer remembers.
func (ms *session) resumeLocked(sub uint64) (hello wire.Hello, replay []*watchEvent, fresh bool) {
	sa := ms.subs[sub]
	if sa == nil {
		hello = wire.Hello{Subscription: ms.mintSubLocked(), Version: ms.lastVersion, ResumeFrom: ms.lastVersion, Reset: sub != 0}
		return hello, nil, true
	}
	hello = wire.Hello{Subscription: sub, Version: ms.lastVersion, ResumeFrom: sa.acked}
	if sa.acked < ms.lastVersion {
		replay, hello.Reset = ms.ringAfterLocked(sa.acked)
	}
	return hello, replay, false
}

// mintSubLocked allocates a new subscription id, evicting the oldest
// one past maxSubscriptions.
func (ms *session) mintSubLocked() uint64 {
	if len(ms.subs) >= maxSubscriptions {
		oldest := uint64(0)
		for id := range ms.subs {
			if oldest == 0 || id < oldest {
				oldest = id
			}
		}
		delete(ms.subs, oldest)
	}
	ms.nextSub++
	ms.subs[ms.nextSub] = &subAck{acked: ms.lastVersion}
	return ms.nextSub
}

// ringAfterLocked returns the retained events with version > acked, and
// whether the ring failed to cover the gap (reset: the client missed
// events the ring already evicted).
func (ms *session) ringAfterLocked(acked uint64) (replay []*watchEvent, reset bool) {
	if latest := ms.ringLatestLocked(); latest != nil && acked >= latest.version {
		return nil, false // fully caught up: nothing missed, no reset
	}
	for _, ev := range ms.ring {
		if ev.version > acked {
			replay = append(replay, ev)
		}
	}
	if len(replay) == 0 {
		if ev := ms.ringLatestLocked(); ev != nil {
			return []*watchEvent{ev}, true
		}
		return nil, true
	}
	// Covered iff the oldest replayed event is the one right after the
	// cursor; generations advance by exactly one per broadcast. An
	// uncovered gap forces a full re-sync, and since every event carries
	// a complete report, only the latest one is worth replaying then.
	if replay[0].version != acked+1 {
		return []*watchEvent{replay[len(replay)-1]}, true
	}
	return replay, false
}

// ringLatestLocked returns the newest retained event (nil when the ring
// is empty or disabled).
func (ms *session) ringLatestLocked() *watchEvent {
	if len(ms.ring) == 0 {
		return nil
	}
	return ms.ring[len(ms.ring)-1]
}

// ack advances a subscription's cursor; it reports whether the
// subscription exists.
func (ms *session) ack(sub, version uint64) bool {
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	sa := ms.subs[sub]
	if sa == nil {
		return false
	}
	if version > sa.acked {
		sa.acked = version
	}
	return true
}

// nack rewinds a subscription's cursor to just before the rejected
// version, so replay-after-reconnect re-delivers it.
func (ms *session) nack(sub, version uint64) bool {
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	sa := ms.subs[sub]
	if sa == nil {
		return false
	}
	if version > 0 && version-1 < sa.acked {
		sa.acked = version - 1
	}
	return true
}

// encodeEventJSON marshals one report exactly the way the streaming
// json.Encoder used to (SetEscapeHTML(false) + trailing newline), so
// the single-marshal fan-out is byte-identical to the old stream.
func encodeEventJSON(rep *planarcert.SessionReport) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rep); err != nil {
		return nil
	}
	return buf.Bytes()
}

// encoded returns ev's bytes in one stream format, marshaling them on
// first use, so a report is encoded at most once per format however many
// watchers receive it. The caller holds watchMu. nil means the encode
// failed.
func (ev *watchEvent) encoded(binary bool) []byte {
	if binary {
		if ev.bin == nil {
			ev.bin, _ = planarcert.EncodeEventFrame(ev.version, ev.rep)
		}
		return ev.bin
	}
	if ev.json == nil {
		ev.json = encodeEventJSON(ev.rep)
	}
	return ev.json
}

// broadcast fans one report out to every watcher without blocking: a
// watcher whose buffer is full loses the report (counted by the caller
// via the returned drop count) rather than stalling the flush path.
// The report is marshaled at most ONCE per wire format — watchers
// receive pre-encoded bytes — and retained in the replay ring for
// reconnecting subscriptions.
func (ms *session) broadcast(rep *planarcert.SessionReport) (delivered, dropped int) {
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	ev := &watchEvent{version: rep.Generation, rep: rep}
	ms.lastVersion = ev.version
	if ms.ringCap > 0 {
		if len(ms.ring) >= ms.ringCap {
			copy(ms.ring, ms.ring[1:])
			ms.ring[len(ms.ring)-1] = ev
		} else {
			ms.ring = append(ms.ring, ev)
		}
	}
	for _, w := range ms.watchers {
		if ev.encoded(w.binary) == nil {
			dropped++
			continue
		}
		select {
		case w.ch <- ev:
			delivered++
		default:
			dropped++
		}
	}
	ms.broadcastHook(delivered, dropped)
	return delivered, dropped
}

// unwatch removes a watcher; safe to call after shutdown.
func (ms *session) unwatch(id uint64) {
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	delete(ms.watchers, id)
}

// shutdown closes the session for good. With drain set (daemon exit,
// LRU eviction), updates still queued are absorbed, logged and
// broadcast as one final batch and a snapshot checkpoints the session;
// without it (deletion) the durable state is about to be removed and
// nothing is written. Either way the store is closed, every later batch
// or queue request fails with errShutDown, no watch can attach, and the
// open watch streams terminate. The drain and the shut flag share one
// ms.mu critical section, so no batch or queued update slips in between.
func (ms *session) shutdown(drain bool) {
	ms.mu.Lock()
	if drain {
		if len(ms.pendingLog) > 0 {
			_, _, _ = ms.absorb(nil, false, nil)
		}
		_ = ms.writeSnapshotLocked()
	}
	ms.shut = true
	if ms.store != nil {
		_ = ms.store.Close()
		ms.store = nil
	}
	ms.mu.Unlock()
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	for id, w := range ms.watchers {
		close(w.ch)
		delete(ms.watchers, id)
	}
}
