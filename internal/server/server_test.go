package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body interface{}, wantCode int, out interface{}) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d; body %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %s: %v", method, url, raw, err)
		}
	}
}

// TestEndToEnd drives the full session lifecycle over real HTTP:
// create -> stream update batches -> observe the watch stream -> fetch
// certificates -> verify -> delete, plus the stateless endpoints.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Health and schemes.
	var h Health
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Sessions != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	var schemes []planarcert.SchemeName
	doJSON(t, "GET", ts.URL+"/v1/schemes", nil, http.StatusOK, &schemes)
	if len(schemes) == 0 {
		t.Fatal("no schemes listed")
	}

	// One-shot certify of K4 (planar) with certificates returned.
	var certResp CertifyResponse
	doJSON(t, "POST", ts.URL+"/v1/certify", CertifyRequest{
		Scheme:              planarcert.SchemePlanarity,
		Graph:               GraphSpec{Edges: [][2]planarcert.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
		IncludeCertificates: true,
	}, http.StatusOK, &certResp)
	if !certResp.Report.Accepted || len(certResp.Certificates) != 4 {
		t.Fatalf("one-shot certify: %+v", certResp.Report)
	}

	// One-shot verify round-trips those certificates...
	var verRep planarcert.Report
	doJSON(t, "POST", ts.URL+"/v1/verify", VerifyRequest{
		Scheme:       planarcert.SchemePlanarity,
		Graph:        GraphSpec{Edges: [][2]planarcert.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
		Certificates: certResp.Certificates,
	}, http.StatusOK, &verRep)
	if !verRep.Accepted {
		t.Fatalf("verify of honest certificates rejected: %+v", verRep)
	}
	// ... and rejects a corrupted assignment (soundness over the wire).
	forged := map[planarcert.NodeID]WireCertificate{}
	for id, c := range certResp.Certificates {
		forged[id] = c
	}
	forged[0] = WireCertificate{Data: []byte{0xff, 0xff, 0xff, 0xff}, Bits: 32}
	doJSON(t, "POST", ts.URL+"/v1/verify", VerifyRequest{
		Scheme:       planarcert.SchemePlanarity,
		Graph:        GraphSpec{Edges: [][2]planarcert.NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}},
		Certificates: forged,
	}, http.StatusOK, &verRep)
	if verRep.Accepted {
		t.Fatal("forged certificate accepted")
	}

	// Create a session on a 4-cycle, via the text edge-list form.
	var st SessionStatus
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name:   "s1",
		Scheme: planarcert.SchemePlanarity,
		Graph:  GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
	}, http.StatusCreated, &st)
	if !st.Certified || st.Nodes != 4 || st.Edges != 4 {
		t.Fatalf("created session: %+v", st)
	}
	// Duplicate name conflicts.
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "s1"}, http.StatusConflict, nil)

	// Attach a watcher before applying updates.
	watchResp, err := http.Get(ts.URL + "/v1/sessions/s1/watch?replay=last")
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	if ct := watchResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	watchLines := make(chan *planarcert.SessionReport, 16)
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		sc := bufio.NewScanner(watchResp.Body)
		for sc.Scan() {
			var rep planarcert.SessionReport
			if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
				t.Errorf("watch line %q: %v", sc.Text(), err)
				return
			}
			watchLines <- &rep
		}
	}()
	nextWatch := func() *planarcert.SessionReport {
		select {
		case rep := <-watchLines:
			return rep
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a watch report")
			return nil
		}
	}
	if rep := nextWatch(); rep.Generation != 0 {
		t.Fatalf("replayed report generation %d, want 0", rep.Generation)
	}

	// Apply one NDJSON batch: add a chord.
	var ur UpdatesResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/s1/updates",
		`{"op":"add_edge","a":0,"b":2}`, http.StatusOK, &ur)
	if ur.Report == nil || !ur.Report.Accepted || ur.Report.Generation != 1 {
		t.Fatalf("apply: %+v", ur.Report)
	}
	if rep := nextWatch(); rep.Generation != 1 || rep.Updates != 1 {
		t.Fatalf("watch saw %+v", rep)
	}

	// Queue + flush semantics.
	ur = UpdatesResponse{}
	doJSON(t, "POST", ts.URL+"/v1/sessions/s1/updates?mode=queue",
		"{\"op\":\"add_node\",\"a\":4}\n{\"op\":\"add_edge\",\"a\":4,\"b\":0}", http.StatusAccepted, &ur)
	if ur.Queued != 2 || ur.Pending != 2 || ur.Report != nil {
		t.Fatalf("queue: %+v", ur)
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1", nil, http.StatusOK, &st)
	if st.Pending != 2 || st.Generation != 1 {
		t.Fatalf("status after queue: %+v", st)
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions/s1/flush", nil, http.StatusOK, &ur)
	if ur.Report == nil || ur.Report.Updates != 2 || ur.Report.Generation != 2 {
		t.Fatalf("flush: %+v", ur.Report)
	}
	if rep := nextWatch(); rep.Generation != 2 {
		t.Fatalf("watch saw %+v", rep)
	}

	// An invalid batch (duplicate edge) is rejected whole.
	doJSON(t, "POST", ts.URL+"/v1/sessions/s1/updates",
		`{"op":"add_edge","a":0,"b":1}`, http.StatusUnprocessableEntity, nil)

	// Certificates + full verification.
	var wire map[planarcert.NodeID]WireCertificate
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1/certificates", nil, http.StatusOK, &wire)
	if len(wire) != 5 {
		t.Fatalf("got %d certificates, want 5", len(wire))
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions/s1/verify", nil, http.StatusOK, &verRep)
	if !verRep.Accepted {
		t.Fatalf("session verify: %+v", verRep)
	}

	// Listing includes the session; metrics expose the counters.
	var list []*SessionStatus
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "s1" || list[0].Watchers != 1 {
		t.Fatalf("list: %+v", list[0])
	}
	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(metResp.Body)
	metResp.Body.Close()
	for _, want := range []string{
		"planarcertd_sessions_active 1",
		"planarcertd_batches_total{mode=",
		"planarcertd_batch_seconds_count",
		"planarcertd_watch_events_total",
		"planarcertd_updates_total 3",
		// The ?replay=last line of the NDJSON watch is a replayed event.
		"planarcertd_watch_replayed_total 1",
	} {
		if !strings.Contains(string(met), want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}

	// Delete terminates the watch stream.
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/s1", nil, http.StatusNoContent, nil)
	select {
	case <-watchDone:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream did not close on session deletion")
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions/s1", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/s1", nil, http.StatusNotFound, nil)
}

// TestUncertifiableSessionLifecycle checks that a session created on a
// non-planar network under the planarity scheme flips, and that an
// empty-graph session reports uncertified rather than failing.
func TestUncertifiableSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// K5 under planarity: the session flips to non-planarity.
	var st SessionStatus
	k5 := GraphSpec{}
	for a := planarcert.NodeID(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			k5.Edges = append(k5.Edges, [2]planarcert.NodeID{a, b})
		}
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "k5", Scheme: planarcert.SchemePlanarity, Graph: k5,
	}, http.StatusCreated, &st)
	if !st.Certified || st.ActiveScheme != planarcert.SchemeNonPlanarity {
		t.Fatalf("K5 session: %+v", st)
	}

	// Empty graph: created but uncertified until populated.
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "empty"}, http.StatusCreated, &st)
	if st.Certified {
		t.Fatalf("empty session claims certified: %+v", st)
	}
	var ur UpdatesResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/empty/updates",
		"{\"op\":\"add_node\",\"a\":1}\n{\"op\":\"add_node\",\"a\":2}\n{\"op\":\"add_edge\",\"a\":1,\"b\":2}",
		http.StatusOK, &ur)
	if !ur.Report.Accepted {
		t.Fatalf("populated empty session: %+v", ur.Report)
	}
}

// TestSessionLimit pins the MaxSessions guard and the shutdown gate:
// after Close, session creation answers 503 so a draining HTTP server
// cannot be wedged by a freshly opened watch stream.
func TestSessionLimit(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 2})
	var st SessionStatus
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "a"}, http.StatusCreated, &st)
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "b"}, http.StatusCreated, &st)
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "c"}, http.StatusTooManyRequests, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/a", nil, http.StatusNoContent, nil)
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "c"}, http.StatusCreated, &st)

	srv.Close()
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{Name: "d"}, http.StatusServiceUnavailable, nil)
	doJSON(t, "GET", ts.URL+"/v1/sessions/b", nil, http.StatusNotFound, nil)
}

// TestConcurrentSessionHammer drives ONE session from many goroutines
// through the server's serialization layer: writers apply disjoint
// chord add/remove batches, readers poll status/certificates/verify,
// and a watcher consumes the report stream. Run under -race this is the
// concurrency-hardening regression test for the per-session mutex.
func TestConcurrentSessionHammer(t *testing.T) {
	const (
		writers = 8
		rounds  = 12
	)
	_, ts := newTestServer(t, Config{BudgetSlots: 4, WatchBuffer: writers*rounds + 4})

	// A path 0-1-...-(2*writers+1). Writer w owns the chord {2w, 2w+2}:
	// the chords are pairwise distinct, never path edges, and keep the
	// graph planar in every interleaving, so all batches succeed and the
	// only thing under test is the serialization layer.
	n := 2*writers + 2
	spec := GraphSpec{}
	for i := 0; i < n-1; i++ {
		spec.Edges = append(spec.Edges, [2]planarcert.NodeID{planarcert.NodeID(i), planarcert.NodeID(i + 1)})
	}
	var st SessionStatus
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateSessionRequest{
		Name: "hammer", Scheme: planarcert.SchemePlanarity, Graph: spec,
	}, http.StatusCreated, &st)

	watchResp, err := http.Get(ts.URL + "/v1/sessions/hammer/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	var watched int
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		sc := bufio.NewScanner(watchResp.Body)
		for sc.Scan() {
			watched++
		}
	}()

	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, writers*2)
	for wr := 0; wr < writers; wr++ {
		writerWG.Add(1)
		go func(wr int) {
			defer writerWG.Done()
			a, b := 2*wr, 2*wr+2
			for r := 0; r < rounds; r++ {
				op := "add_edge"
				if r%2 == 1 {
					op = "remove_edge"
				}
				body := fmt.Sprintf("{\"op\":%q,\"a\":%d,\"b\":%d}", op, a, b)
				resp, err := http.Post(ts.URL+"/v1/sessions/hammer/updates", "application/x-ndjson", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d round %d: status %d: %s", wr, r, resp.StatusCode, raw)
					return
				}
			}
		}(wr)
	}
	// Readers: status, certificates, full verify, health, metrics.
	readerStop := make(chan struct{})
	for rd := 0; rd < 4; rd++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			paths := []string{"/v1/sessions/hammer", "/v1/sessions/hammer/certificates", "/healthz", "/metrics"}
			for i := 0; ; i++ {
				select {
				case <-readerStop:
					return
				default:
				}
				if i%5 == 4 {
					resp, err := http.Post(ts.URL+"/v1/sessions/hammer/verify", "application/json", nil)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					continue
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	writersDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer writers timed out")
	}
	close(readerStop)
	readerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Every chord was added rounds/2 times and removed rounds/2 times,
	// so the final topology is exactly the initial path and the session
	// must still be certified planar.
	doJSON(t, "GET", ts.URL+"/v1/sessions/hammer", nil, http.StatusOK, &st)
	if st.Generation != uint64(writers*rounds) {
		t.Fatalf("generation %d, want %d (batches lost or duplicated)", st.Generation, writers*rounds)
	}
	if !st.Certified || st.Edges != n-1 || st.Nodes != n {
		t.Fatalf("final state: %+v", st)
	}
	var rep planarcert.Report
	doJSON(t, "POST", ts.URL+"/v1/sessions/hammer/verify", nil, http.StatusOK, &rep)
	if !rep.Accepted {
		t.Fatalf("final full verification rejected: %+v", rep)
	}

	// The watcher must have seen every batch (its buffer exceeds the
	// total report count, so nothing may be dropped).
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/hammer", nil, http.StatusNoContent, nil)
	select {
	case <-watchDone:
	case <-time.After(5 * time.Second):
		t.Fatal("hammer watch stream did not close")
	}
	if watched != writers*rounds {
		t.Fatalf("watcher saw %d reports, want %d", watched, writers*rounds)
	}
}

// TestManyConcurrentSessions creates many sessions in parallel, streams
// a few batches into each concurrently (all drawing on a tiny shared
// worker budget), and tears them all down — the multi-session analogue
// of the hammer, and the in-test miniature of the serverload bench.
func TestManyConcurrentSessions(t *testing.T) {
	const sessions = 24
	srv, ts := newTestServer(t, Config{BudgetSlots: 2})

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s%02d", i)
			spec := GraphSpec{Edges: [][2]planarcert.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}}
			body, _ := json.Marshal(CreateSessionRequest{Name: name, Graph: spec})
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("create %s: status %d", name, resp.StatusCode)
				return
			}
			for r := 0; r < 4; r++ {
				op := "add_edge"
				if r%2 == 1 {
					op = "remove_edge"
				}
				line := fmt.Sprintf("{\"op\":%q,\"a\":0,\"b\":2}", op)
				resp, err := http.Post(ts.URL+"/v1/sessions/"+name+"/updates", "application/x-ndjson", strings.NewReader(line))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s round %d: status %d", name, r, resp.StatusCode)
					return
				}
			}
			req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+name, nil)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
}
