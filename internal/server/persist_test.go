package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/qos"
	"github.com/planarcert/planarcert/internal/wal"
)

// newDurableServer builds a recovered durable server over dir. Tests
// that simulate a crash construct the first incarnation with New +
// Recover directly and simply abandon it (no Close), so no final
// snapshot or WAL flush happens.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	cfg.Fsync = wal.SyncNever // tests survive SIGKILL, not power loss
	srv := New(cfg)
	if err := srv.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func sessionGraph(t *testing.T, base, name string) GraphExport {
	t.Helper()
	var g GraphExport
	doJSON(t, "GET", base+"/v1/sessions/"+name+"/graph", nil, http.StatusOK, &g)
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i] < g.Nodes[j] })
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i][0] != g.Edges[j][0] {
			return g.Edges[i][0] < g.Edges[j][0]
		}
		return g.Edges[i][1] < g.Edges[j][1]
	})
	return g
}

// TestDurableSessionRecovery is the round trip: sessions built on one
// server incarnation come back on the next with the same topology,
// generation floor, options, and a certified assignment.
func TestDurableSessionRecovery(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir, Config{SnapshotEvery: 2})

	var st SessionStatus
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:   "ring",
		Scheme: planarcert.SchemePlanarity,
		Graph:  GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
		NoFlip: true,
	}, http.StatusCreated, &st)
	if !st.Durable {
		t.Fatalf("session not durable: %+v", st)
	}
	var ur UpdatesResponse
	doJSON(t, "POST", tsA.URL+"/v1/sessions/ring/updates",
		`{"op":"add_edge","a":0,"b":2}`, http.StatusOK, &ur)
	doJSON(t, "POST", tsA.URL+"/v1/sessions/ring/updates",
		"{\"op\":\"add_node\",\"a\":4}\n{\"op\":\"add_edge\",\"a\":4,\"b\":1}", http.StatusOK, &ur)
	if ur.Report.Generation != 2 {
		t.Fatalf("generation = %d, want 2", ur.Report.Generation)
	}
	// A second session that was uncertified at snapshot time.
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "weird name/2",
		Graph: GraphSpec{Edges: [][2]planarcert.NodeID{{0, 1}}},
	}, http.StatusCreated, &st)

	before := sessionGraph(t, tsA.URL, "ring")
	srvA.Close() // graceful: drains, snapshots, closes stores
	tsA.Close()

	srvB, tsB := newDurableServer(t, dir, Config{SnapshotEvery: 2})
	if n := srvB.SessionCount(); n != 2 {
		t.Fatalf("recovered %d sessions, want 2", n)
	}
	doJSON(t, "GET", tsB.URL+"/v1/sessions/ring", nil, http.StatusOK, &st)
	if !st.Certified || st.Generation < 2 || !st.Durable || st.Scheme != planarcert.SchemePlanarity {
		t.Fatalf("recovered status: %+v", st)
	}
	after := sessionGraph(t, tsB.URL, "ring")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("graph mismatch after recovery:\n before %+v\n after  %+v", before, after)
	}
	// The restored session keeps absorbing updates.
	doJSON(t, "POST", tsB.URL+"/v1/sessions/ring/updates",
		`{"op":"add_edge","a":4,"b":2}`, http.StatusOK, &ur)
	if !ur.Report.Accepted {
		t.Fatalf("post-recovery apply: %+v", ur.Report)
	}
	var rd Ready
	doJSON(t, "GET", tsB.URL+"/readyz", nil, http.StatusOK, &rd)
	if !rd.Ready || rd.SessionsRestored != 2 {
		t.Fatalf("readyz = %+v", rd)
	}
}

// TestRecoveryReplaysWalTail kills the first incarnation without a
// graceful shutdown: acked batches that only made it to the WAL (the
// snapshot interval is huge) must come back, with the self-validating
// restore re-proving over the replayed topology.
func TestRecoveryReplaysWalTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotEvery: 1 << 20, DataDir: dir, Fsync: wal.SyncNever}
	srvA := New(cfg)
	if err := srvA.Recover(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())

	var st SessionStatus
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "tail",
		Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 0\n"},
	}, http.StatusCreated, &st)
	var ur UpdatesResponse
	for _, line := range []string{
		`{"op":"add_node","a":3}`,
		`{"op":"add_edge","a":3,"b":0}`,
		`{"op":"add_edge","a":3,"b":1}`,
		`{"op":"remove_edge","a":2,"b":0}`,
	} {
		doJSON(t, "POST", tsA.URL+"/v1/sessions/tail/updates", line, http.StatusOK, &ur)
	}
	before := sessionGraph(t, tsA.URL, "tail")
	tsA.Close() // crash: no srvA.Close(), stores never snapshot the tail

	srvB, tsB := newDurableServer(t, dir, Config{})
	if n := srvB.SessionCount(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	doJSON(t, "GET", tsB.URL+"/v1/sessions/tail", nil, http.StatusOK, &st)
	if !st.Certified || st.Generation < 4 {
		t.Fatalf("recovered status: %+v", st)
	}
	after := sessionGraph(t, tsB.URL, "tail")
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("WAL tail lost:\n before %+v\n after  %+v", before, after)
	}
	if got := srvB.met.walReplayed.Load(); got != 4 {
		t.Fatalf("replayed %d WAL records, want 4", got)
	}
}

// TestRecoveryTruncatesCorruptWal flips a byte inside the logged tail:
// recovery must keep the clean prefix, never panic, and still restore a
// certified session.
func TestRecoveryTruncatesCorruptWal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SnapshotEvery: 1 << 20, DataDir: dir, Fsync: wal.SyncNever}
	srvA := New(cfg)
	if err := srvA.Recover(); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	var st SessionStatus
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "chop",
		Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 0\n"},
	}, http.StatusCreated, &st)
	var ur UpdatesResponse
	doJSON(t, "POST", tsA.URL+"/v1/sessions/chop/updates",
		"{\"op\":\"add_node\",\"a\":3}\n{\"op\":\"add_edge\",\"a\":3,\"b\":0}", http.StatusOK, &ur)
	doJSON(t, "POST", tsA.URL+"/v1/sessions/chop/updates", `{"op":"add_edge","a":3,"b":1}`, http.StatusOK, &ur)
	tsA.Close() // crash

	logPath := filepath.Join(dir, "sessions", "s-chop", "wal.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff // damage the last record
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newDurableServer(t, dir, Config{})
	if n := srvB.SessionCount(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	doJSON(t, "GET", tsB.URL+"/v1/sessions/chop", nil, http.StatusOK, &st)
	if !st.Certified {
		t.Fatalf("recovered status: %+v", st)
	}
	// The clean prefix (node 3 and edge {3,0}) survives; the damaged
	// record's edge {3,1} does not.
	g := sessionGraph(t, tsB.URL, "chop")
	if len(g.Nodes) != 4 || len(g.Edges) != 4 {
		t.Fatalf("recovered graph %+v, want the 3-cycle plus pendant node 3", g)
	}
	if srvB.met.walCorrupt.Load() == 0 {
		t.Fatal("corrupt WAL record not counted")
	}
}

// TestRecoveryRevalidatesCertificates hand-writes a snapshot whose
// certificates are semantically wrong but CRC-clean — damage no
// checksum can catch. The proof-labeling scheme's own verification
// sweep must reject them during restore and re-prove.
func TestRecoveryRevalidatesCertificates(t *testing.T) {
	dir := t.TempDir()
	root, err := wal.OpenRoot(dir, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	st, err := root.CreateSession("tampered")
	if err != nil {
		t.Fatal(err)
	}
	net := planarcert.NewNetwork()
	for id := planarcert.NodeID(0); id < 4; id++ {
		if err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]planarcert.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := net.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	hi, lo := net.Fingerprint()
	snap := &wal.Snapshot{
		Name:          "tampered",
		Scheme:        string(planarcert.SchemePlanarity),
		ActiveScheme:  string(planarcert.SchemePlanarity),
		Generation:    7,
		Seq:           0,
		FingerprintHi: hi,
		FingerprintLo: lo,
		Nodes:         walNodes(net),
		Edges:         walEdges(net),
		Certs: []wal.NodeCert{ // garbage bits, valid encoding
			{ID: 0, Bits: 16, Data: []byte{0xde, 0xad}},
			{ID: 1, Bits: 16, Data: []byte{0xbe, 0xef}},
			{ID: 2, Bits: 16, Data: []byte{0xca, 0xfe}},
			{ID: 3, Bits: 16, Data: []byte{0x00, 0x01}},
		},
	}
	if err := st.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts := newDurableServer(t, dir, Config{})
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	var status SessionStatus
	doJSON(t, "GET", ts.URL+"/v1/sessions/tampered", nil, http.StatusOK, &status)
	if !status.Certified {
		t.Fatalf("session not re-proved after tampered restore: %+v", status)
	}
	if status.Last == nil || status.Last.Mode == "restore" {
		t.Fatalf("tampered certificates restored verbatim: %+v", status.Last)
	}
	// A clean re-verification over the re-proved assignment accepts.
	var rep planarcert.Report
	doJSON(t, "POST", ts.URL+"/v1/sessions/tampered/verify", nil, http.StatusOK, &rep)
	if !rep.Accepted {
		t.Fatalf("re-proved session fails verification: %+v", rep)
	}
}

// TestReadyzGatesTraffic drives the boot sequence: a durable server
// answers 503 on /readyz and every session endpoint until Recover runs.
func TestReadyzGatesTraffic(t *testing.T) {
	srv := New(Config{DataDir: t.TempDir(), Fsync: wal.SyncNever})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var rd Ready
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusServiceUnavailable, &rd)
	if rd.Ready || rd.Status != "recovering" {
		t.Fatalf("readyz before recovery = %+v", rd)
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusServiceUnavailable, nil)
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "x"}, http.StatusServiceUnavailable, nil)
	// Liveness stays up throughout.
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)

	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK, &rd)
	if !rd.Ready || rd.Status != "ok" {
		t.Fatalf("readyz after recovery = %+v", rd)
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, nil)

	srv.Close()
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusServiceUnavailable, &rd)
	if rd.Ready || rd.Status != "draining" {
		t.Fatalf("readyz after close = %+v", rd)
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "y"}, http.StatusServiceUnavailable, nil)
}

// TestDeleteRemovesDurableState checks DELETE erases the session's
// directory so the next boot does not resurrect it.
func TestDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir, Config{})
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "gone",
		Graph: GraphSpec{EdgeList: "0 1\n"},
	}, http.StatusCreated, nil)
	doJSON(t, "DELETE", tsA.URL+"/v1/sessions/gone", nil, http.StatusNoContent, nil)
	srvA.Close()
	tsA.Close()

	srvB, _ := newDurableServer(t, dir, Config{})
	if n := srvB.SessionCount(); n != 0 {
		t.Fatalf("deleted session resurrected (%d sessions)", n)
	}
	srvB.Close()
}

// TestRecoveryMetricsExposed checks the recovery counters named in the
// ops contract appear on /metrics after a durable boot.
func TestRecoveryMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir, Config{})
	doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
		Name:  "m",
		Graph: GraphSpec{EdgeList: "0 1\n1 2\n"},
	}, http.StatusCreated, nil)
	srvA.Close()
	tsA.Close()

	_, tsB := newDurableServer(t, dir, Config{})
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, name := range []string{
		"planarcertd_recovery_seconds",
		"planarcertd_wal_records_replayed",
		"planarcertd_wal_corrupt_records",
		"planarcertd_sessions_restored_total 1",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics missing %q:\n%s", name, body)
		}
	}
}

// TestNoAckAfterShutdown pins "an ack means the batch is logged" for a
// batch that passed the draining check but is still waiting in
// admission when its session is shut down — by a graceful Close or by
// LRU eviction. Such a batch must not be acked, and a batch that was
// acked must survive recovery.
func TestNoAckAfterShutdown(t *testing.T) {
	for _, via := range []string{"close", "evict"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{ExecSlots: 1, MaxSessions: 1, EvictLRU: via == "evict"}
			srvA, tsA := newDurableServer(t, dir, cfg)
			doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
				Name:  "s",
				Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
			}, http.StatusCreated, nil)

			// Hold the only execution slot so the batch waits in admission.
			hold := srvA.exec.Claimant("holder", qos.Interactive)
			if !hold.AcquireWait(time.Second, nil) {
				t.Fatal("could not take the execution slot")
			}
			code := make(chan int, 1)
			go func() {
				resp, err := http.Post(tsA.URL+"/v1/sessions/s/updates", "application/x-ndjson",
					strings.NewReader(`{"op":"add_edge","a":0,"b":2}`))
				if err != nil {
					t.Error(err)
					code <- 0
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				code <- resp.StatusCode
			}()
			deadline := time.Now().Add(5 * time.Second)
			for srvA.exec.QueueDepth() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("batch never reached admission")
				}
				time.Sleep(time.Millisecond)
			}
			if via == "close" {
				srvA.Close()
			} else {
				doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
					Name:  "other",
					Graph: GraphSpec{EdgeList: "0 1\n"},
				}, http.StatusCreated, nil)
			}
			hold.Release()
			got := <-code
			tsA.Close()

			_, tsB := newDurableServer(t, dir, Config{})
			logged := false
			for _, e := range sessionGraph(t, tsB.URL, "s").Edges {
				logged = logged || e == [2]planarcert.NodeID{0, 2}
			}
			if got == http.StatusOK && !logged {
				t.Fatal("batch acked 200 but absent after recovery")
			}
			if got != http.StatusServiceUnavailable {
				t.Fatalf("batch reaching a shut-down session: status %d, want 503", got)
			}
		})
	}
}

// TestDurableQueueMode covers queue mode on a durable server: queued
// updates are logged with the batch that absorbs them, absorbed and
// logged by a graceful shutdown, and that shutdown batch is broadcast to
// the session's watchers before their streams end.
func TestDurableQueueMode(t *testing.T) {
	queued := "{\"op\":\"add_node\",\"a\":4}\n{\"op\":\"add_edge\",\"a\":4,\"b\":0}"
	setup := func(t *testing.T) (string, *Server, *httptest.Server) {
		dir := t.TempDir()
		srv := New(Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotEvery: 1 << 20})
		if err := srv.Recover(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
			Name:  "q",
			Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
		}, http.StatusCreated, nil)
		var ur UpdatesResponse
		doJSON(t, "POST", ts.URL+"/v1/sessions/q/updates?mode=queue", queued, http.StatusAccepted, &ur)
		if ur.Queued != 2 || ur.Pending != 2 {
			t.Fatalf("queue: %+v", ur)
		}
		return dir, srv, ts
	}
	recovered := func(t *testing.T, dir string) GraphExport {
		_, ts := newDurableServer(t, dir, Config{})
		return sessionGraph(t, ts.URL, "q")
	}

	t.Run("apply-then-crash", func(t *testing.T) {
		dir, _, ts := setup(t)
		var ur UpdatesResponse
		doJSON(t, "POST", ts.URL+"/v1/sessions/q/updates", `{"op":"add_edge","a":0,"b":2}`, http.StatusOK, &ur)
		if ur.Report.Updates != 3 {
			t.Fatalf("apply absorbed %d updates, want 3", ur.Report.Updates)
		}
		before := sessionGraph(t, ts.URL, "q")
		ts.Close() // crash: no Close, nothing past the WAL record
		if after := recovered(t, dir); !reflect.DeepEqual(before, after) || len(after.Edges) != 6 {
			t.Fatalf("after crash recovery:\n before %+v\n after  %+v", before, after)
		}
	})

	t.Run("graceful-close", func(t *testing.T) {
		dir, srv, ts := setup(t)
		srv.Close()
		ts.Close()
		after := recovered(t, dir)
		if len(after.Nodes) != 5 || len(after.Edges) != 5 {
			t.Fatalf("queued updates lost across Close: %+v", after)
		}
	})

	t.Run("watcher-sees-shutdown-batch", func(t *testing.T) {
		_, srv, ts := setup(t)
		resp, err := http.Get(ts.URL + "/v1/sessions/q/watch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		srv.Close()
		raw, err := io.ReadAll(resp.Body) // the stream ends with the session
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var rep planarcert.SessionReport
		if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &rep) != nil {
			t.Fatalf("watch stream %q, want the one shutdown report", raw)
		}
		if rep.Updates != 2 || rep.Generation != 1 || !rep.Accepted {
			t.Fatalf("shutdown report %+v", rep)
		}
	})
}

// TestShutDownSessionRefusesWork pins the shut-down state at the session
// level, where a request that looked the session up before it was
// removed lands: queue and absorb fail with errShutDown and no watch
// can attach.
func TestShutDownSessionRefusesWork(t *testing.T) {
	ms := newTestSession(t, "shut")
	ms.shutdown(true)
	if _, err := ms.queue([]planarcert.Update{planarcert.NodeAdd(9)}); !errors.Is(err, errShutDown) {
		t.Fatalf("queue after shutdown: %v", err)
	}
	ms.mu.Lock()
	_, _, err := ms.absorb([]planarcert.Update{planarcert.NodeAdd(9)}, false, nil)
	ms.mu.Unlock()
	if !errors.Is(err, errShutDown) {
		t.Fatalf("absorb after shutdown: %v", err)
	}
	if _, ok := ms.subscribe(false, 0, true); ok {
		t.Fatal("watch attached to a shut-down session")
	}
}

// crashState is what a crash must not lose: a session's generation,
// edge set and topology fingerprint.
type crashState struct {
	gen    uint64
	graph  GraphExport
	hi, lo uint64
}

func stateOf(t *testing.T, srv *Server, base, name string) crashState {
	t.Helper()
	ms := srv.lookup(name)
	if ms == nil {
		t.Fatalf("session %q not registered", name)
	}
	ms.mu.Lock()
	st := crashState{gen: ms.s.Generation()}
	st.hi, st.lo = ms.s.Fingerprint()
	ms.mu.Unlock()
	st.graph = sessionGraph(t, base, name)
	return st
}

// walRecords counts the records in a session's log, read from a copy
// so that opening it leaves the live file alone.
func walRecords(t *testing.T, dir, name string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "sessions", "s-"+name, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(cp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, batches, _, err := wal.OpenLog(cp, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return len(batches)
}

// crashServer boots a durable server on dir without registering a
// cleanup Close, so the test can abandon it as a crash would.
func crashServer(t *testing.T, dir string, snapEvery int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotEvery: snapEvery})
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv.Handler())
}

// postLeaves sends count one-leaf batches to session name, attaching
// new nodes from id next on to node 0.
func postLeaves(t *testing.T, base, name string, next, count int) {
	t.Helper()
	for i := next; i < next+count; i++ {
		doJSON(t, "POST", base+"/v1/sessions/"+name+"/updates",
			fmt.Sprintf("{\"op\":\"add_node\",\"a\":%d}\n{\"op\":\"add_edge\",\"a\":%d,\"b\":0}", i, i),
			http.StatusOK, nil)
	}
}

// TestCrashBootDefersFold pins the crash boot that leaves a clean tail
// in the log: the boot writes no snapshot, the log keeps the k tail
// records, the next snapshot lands after SnapshotEvery-k more batches,
// and a second crash before it loses no acked batch.
func TestCrashBootDefersFold(t *testing.T) {
	const every, k = 8, 3
	t.Run("next-snapshot", func(t *testing.T) {
		dir := t.TempDir()
		_, tsA := crashServer(t, dir, every)
		doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
			Name: "d", Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
		}, http.StatusCreated, nil)
		postLeaves(t, tsA.URL, "d", 10, k)
		tsA.Close() // crash

		srvB, tsB := crashServer(t, dir, every)
		defer tsB.Close()
		if got := srvB.met.snapshotsWritten.Load(); got != 0 {
			t.Fatalf("crash boot with a clean tail wrote %d snapshots, want 0", got)
		}
		if got := walRecords(t, dir, "d"); got != k {
			t.Fatalf("wal.log holds %d records after boot, want the %d tail records", got, k)
		}
		postLeaves(t, tsB.URL, "d", 10+k, every-k-1)
		if got := srvB.met.snapshotsWritten.Load(); got != 0 {
			t.Fatalf("snapshot after %d batches, want none before %d", every-1, every)
		}
		postLeaves(t, tsB.URL, "d", 10+every-1, 1)
		if got := srvB.met.snapshotsWritten.Load(); got != 1 {
			t.Fatalf("%d snapshots after SnapshotEvery-k batches, want 1", got)
		}
		if got := walRecords(t, dir, "d"); got != 0 {
			t.Fatalf("wal.log holds %d records after the periodic snapshot, want 0", got)
		}
		srvB.Close()
	})

	t.Run("crash-again", func(t *testing.T) {
		dir := t.TempDir()
		_, tsA := crashServer(t, dir, every)
		doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
			Name: "d", Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
		}, http.StatusCreated, nil)
		postLeaves(t, tsA.URL, "d", 10, k)
		tsA.Close() // crash

		srvB, tsB := crashServer(t, dir, every)
		postLeaves(t, tsB.URL, "d", 10+k, 2)
		before := stateOf(t, srvB, tsB.URL, "d")
		tsB.Close() // crash again, the deferred tail still in the log

		srvC, tsC := crashServer(t, dir, every)
		defer tsC.Close()
		after := stateOf(t, srvC, tsC.URL, "d")
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("second crash boot lost acked batches:\n before %+v\n after  %+v", before, after)
		}
		if before.gen != k+2 {
			t.Fatalf("generation %d, want %d", before.gen, k+2)
		}
		if got := srvC.met.snapshotsWritten.Load(); got != 0 {
			t.Fatalf("second crash boot wrote %d snapshots, want 0", got)
		}
		if got := walRecords(t, dir, "d"); got != k+2 {
			t.Fatalf("wal.log holds %d records, want %d", got, k+2)
		}
		srvC.Close()
	})
}

// TestCrashBootFoldsDamage pins the boot-time fold of a damaged
// directory: a corrupt record, a tail batch that fails to apply and a
// discarded newest snapshot each make the boot write a fresh snapshot
// and compact the log.
func TestCrashBootFoldsDamage(t *testing.T) {
	const name = "f"
	sessDir := func(dir string) string { return filepath.Join(dir, "sessions", "s-"+name) }
	for _, tc := range []struct {
		kind  string
		every int
		// damage edits the crashed directory and returns the state the
		// boot must recover, or nil where the damage loses batches.
		damage func(t *testing.T, dir string, acked crashState) *crashState
	}{
		{"corrupt-record", 1 << 20, func(t *testing.T, dir string, acked crashState) *crashState {
			logPath := filepath.Join(sessDir(dir), "wal.log")
			raw, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0xff // the last record: node 12 and its edge
			if err := os.WriteFile(logPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"failed-batch", 1 << 20, func(t *testing.T, dir string, acked crashState) *crashState {
			st, _, err := wal.OpenStore(sessDir(dir), wal.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			// CRC-clean but inapplicable: the edge is already there.
			if err := st.AppendBatch(st.NextSeq(), []wal.Update{{Op: wal.OpAddEdge, A: 0, B: 1}}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			return &acked
		}},
		{"discarded-snapshot", 2, func(t *testing.T, dir string, acked crashState) *crashState {
			// SnapshotEvery 2: the second leaf wrote the newest
			// snapshot; the third is the log's only record.
			snaps, err := filepath.Glob(filepath.Join(sessDir(dir), "snap-*.snap"))
			if err != nil || len(snaps) != 2 {
				t.Fatalf("snapshots %v (%v), want 2", snaps, err)
			}
			sort.Strings(snaps)
			raw, err := os.ReadFile(snaps[1])
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0xff
			if err := os.WriteFile(snaps[1], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			srvA, tsA := crashServer(t, dir, tc.every)
			doJSON(t, "POST", tsA.URL+"/v1/sessions", CreateSessionRequest{
				Name: name, Graph: GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
			}, http.StatusCreated, nil)
			postLeaves(t, tsA.URL, name, 10, 3)
			want := tc.damage(t, dir, stateOf(t, srvA, tsA.URL, name))
			tsA.Close() // crash

			srvB, tsB := crashServer(t, dir, 1<<20)
			defer tsB.Close()
			if got := srvB.met.snapshotsWritten.Load(); got != 1 {
				t.Fatalf("boot over a %s wrote %d snapshots, want 1", tc.kind, got)
			}
			if srvB.met.walCorrupt.Load() == 0 {
				t.Fatalf("%s not counted as corrupt", tc.kind)
			}
			if got := walRecords(t, dir, name); got != 0 {
				t.Fatalf("wal.log holds %d records after the fold, want 0", got)
			}
			if got := stateOf(t, srvB, tsB.URL, name); want != nil && !reflect.DeepEqual(got, *want) {
				t.Fatalf("fold lost the clean prefix:\n want %+v\n got  %+v", *want, got)
			}
			srvB.Close()
		})
	}
}

// TestSnapshotGraphMatchesAdds pins networkOf, the one-pass snapshot
// graph builder, to the AddNode/AddEdge network it replaced, over
// stacked triangulations and random graphs: the same identifiers, the
// same adjacency order at every node, the same edge set and the same
// fingerprint.
func TestSnapshotGraphMatchesAdds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tri := gen.ScrambleIDs(gen.StackedTriangulation(300, rng), rng)
		gnm, err := gen.GNM(200, 500, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{tri, gnm} {
			net := planarcert.FromGraph(g)
			snap := &wal.Snapshot{Nodes: walNodes(net), Edges: walEdges(net)}
			want := planarcert.NewNetwork()
			for _, id := range snap.Nodes {
				if err := want.AddNode(planarcert.NodeID(id)); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range snap.Edges {
				if err := want.AddEdge(planarcert.NodeID(e[0]), planarcert.NodeID(e[1])); err != nil {
					t.Fatal(err)
				}
			}
			got, err := networkOf(snap)
			if err != nil {
				t.Fatal(err)
			}
			wg, gg := want.Graph(), got.Graph()
			if !reflect.DeepEqual(gg.IDs(), wg.IDs()) || !reflect.DeepEqual(gg.Edges(), wg.Edges()) {
				t.Fatalf("seed %d %v: identifiers or edge set differ", seed, g)
			}
			for u := 0; u < wg.N(); u++ {
				if !reflect.DeepEqual(gg.Neighbors(u), wg.Neighbors(u)) {
					t.Fatalf("seed %d %v: node %d neighbours %v, want %v", seed, g, u, gg.Neighbors(u), wg.Neighbors(u))
				}
			}
			hi1, lo1 := got.Fingerprint()
			hi2, lo2 := want.Fingerprint()
			if hi1 != hi2 || lo1 != lo2 {
				t.Fatalf("seed %d %v: fingerprint differs", seed, g)
			}
		}
	}
}

// TestRecoveryRefusesMalformedSnapshotGraph writes CRC-clean snapshots
// whose graph has a duplicate edge, a self-loop, an unknown endpoint or
// a duplicate node: recovery must refuse each while building the graph,
// before the fingerprint cross-check, count it as failed and restore
// nothing from it.
func TestRecoveryRefusesMalformedSnapshotGraph(t *testing.T) {
	for name, edges := range map[string][][2]int64{
		"duplicate-edge": {{0, 1}, {1, 2}, {2, 0}, {1, 0}},
		"self-loop":      {{0, 1}, {1, 2}, {2, 0}, {2, 2}},
		"unknown-node":   {{0, 1}, {1, 2}, {2, 0}, {2, 7}},
		"duplicate-node": {{0, 1}, {1, 2}, {2, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			root, err := wal.OpenRoot(dir, wal.SyncNever)
			if err != nil {
				t.Fatal(err)
			}
			st, err := root.CreateSession(name)
			if err != nil {
				t.Fatal(err)
			}
			nodes := []int64{0, 1, 2}
			if name == "duplicate-node" {
				nodes = append(nodes, 1)
			}
			if err := st.WriteSnapshot(&wal.Snapshot{
				Name:         name,
				Scheme:       string(planarcert.SchemePlanarity),
				ActiveScheme: string(planarcert.SchemePlanarity),
				Nodes:        nodes,
				Edges:        edges,
			}); err != nil {
				t.Fatal(err)
			}
			st.Close()

			err = New(Config{DataDir: dir}).recoverSession(root.SessionDir(name))
			if err == nil || !strings.Contains(err.Error(), "snapshot graph") {
				t.Fatalf("recoverSession: %v, want the snapshot graph refused", err)
			}
			srv, _ := newDurableServer(t, dir, Config{})
			if n := srv.SessionCount(); n != 0 {
				t.Fatalf("restored %d sessions from a malformed snapshot graph, want 0", n)
			}
			if got := srv.met.recoveryFailed.Load(); got != 1 {
				t.Fatalf("recovery_failed = %d, want 1", got)
			}
		})
	}
}
