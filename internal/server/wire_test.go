package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/qos"
)

// newWireSession creates a session named name on a 4-cycle and returns
// its base URL.
func newWireSession(t *testing.T, tsURL, name string) string {
	t.Helper()
	doJSON(t, "POST", tsURL+"/v1/sessions", CreateSessionRequest{
		Name:   name,
		Scheme: planarcert.SchemePlanarity,
		Graph:  GraphSpec{EdgeList: "0 1\n1 2\n2 3\n3 0\n"},
	}, http.StatusCreated, nil)
	return tsURL + "/v1/sessions/" + name
}

// postFrame POSTs raw bytes under the given Content-Type and returns
// the response.
func postFrame(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestUpdatesContentNegotiation pins the media-type matrix of POST
// .../updates: NDJSON aliases (including no Content-Type at all, which
// bare curl clients send), the binary frame type, and 415 with an
// Accept-Post hint for everything else.
func TestUpdatesContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := newWireSession(t, ts.URL, "neg") + "/updates"

	frame, err := planarcert.EncodeUpdatesFrame("queue", []planarcert.Update{planarcert.EdgeAdd(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ndjson := []byte(`{"op":"add_edge","a":0,"b":2}` + "\n")

	tests := []struct {
		contentType string
		body        []byte
		wantCode    int
	}{
		{"", ndjson, http.StatusAccepted},
		{"application/x-ndjson", ndjson, http.StatusAccepted},
		{"application/json", ndjson, http.StatusAccepted},
		{"application/json; charset=utf-8", ndjson, http.StatusAccepted},
		{"Application/JSON", ndjson, http.StatusAccepted},
		{planarcert.WireContentType, frame, http.StatusAccepted},
		{planarcert.WireContentType + "; v=1", frame, http.StatusAccepted},
		{"text/plain", ndjson, http.StatusUnsupportedMediaType},
		{"application/xml", ndjson, http.StatusUnsupportedMediaType},
		{"application/x-planarcert-frame2", frame, http.StatusUnsupportedMediaType},
	}
	for _, tc := range tests {
		t.Run("ct="+tc.contentType, func(t *testing.T) {
			resp := postFrame(t, url+"?mode=queue", tc.contentType, tc.body)
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d; body %s", resp.StatusCode, tc.wantCode, raw)
			}
			if tc.wantCode == http.StatusUnsupportedMediaType {
				hint := resp.Header.Get("Accept-Post")
				if !strings.Contains(hint, "application/x-ndjson") || !strings.Contains(hint, planarcert.WireContentType) {
					t.Fatalf("Accept-Post hint %q", hint)
				}
			}
		})
	}
}

// TestBinaryUpdates drives queue- and apply-mode batches through the
// frame protocol and checks the binary acks against the JSON path on an
// identical twin session (decode-then-apply parity).
func TestBinaryUpdates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	binURL := newWireSession(t, ts.URL, "bin")
	jsonURL := newWireSession(t, ts.URL, "json")

	updates := []planarcert.Update{
		planarcert.NodeAdd(4),
		planarcert.EdgeAdd(3, 4),
		planarcert.EdgeAdd(0, 2),
	}

	// Queue mode: 202 with a binary ack counting the queue.
	frame, err := planarcert.EncodeUpdatesFrame("queue", updates[:1])
	if err != nil {
		t.Fatal(err)
	}
	resp := postFrame(t, binURL+"/updates", planarcert.WireContentType, frame)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue: status %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != planarcert.WireContentType {
		t.Fatalf("queue ack Content-Type %q", ct)
	}
	ack, err := planarcert.DecodeBatchAckFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Queued != 1 || ack.Pending != 1 || ack.Report != nil {
		t.Fatalf("queue ack %+v", ack)
	}

	// Apply mode ("" = apply): 200 with the absorption report; the queued
	// update above is flushed together with the new ones.
	frame, err = planarcert.EncodeUpdatesFrame("", updates[1:])
	if err != nil {
		t.Fatal(err)
	}
	resp = postFrame(t, binURL+"/updates", planarcert.WireContentType, frame)
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: status %d, body %s", resp.StatusCode, raw)
	}
	ack, err = planarcert.DecodeBatchAckFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Queued != 2 || ack.Report == nil || ack.Elapsed <= 0 {
		t.Fatalf("apply ack %+v", ack)
	}

	// Parity: the same updates over NDJSON on the twin session yield the
	// same deterministic outcome.
	var jr UpdatesResponse
	doJSON(t, "POST", jsonURL+"/updates", ""+
		`{"op":"add_node","a":4}`+"\n"+
		`{"op":"add_edge","a":3,"b":4}`+"\n"+
		`{"op":"add_edge","a":0,"b":2}`+"\n", http.StatusOK, &jr)
	if jr.Report == nil {
		t.Fatal("json path returned no report")
	}
	br := ack.Report
	if br.Generation != jr.Report.Generation || br.Accepted != jr.Report.Accepted ||
		br.Updates != jr.Report.Updates {
		t.Fatalf("binary/json parity:\n binary %+v\n json   %+v", br, jr.Report)
	}

	// Malformed frames are rejected with the JSON error envelope.
	for _, bad := range [][]byte{
		nil,
		[]byte("not a frame"),
		append(bytes.Clone(frame), 0xff), // trailing bytes
	} {
		resp = postFrame(t, binURL+"/updates", planarcert.WireContentType, bad)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad frame %q: status %d", bad, resp.StatusCode)
		}
	}

	// Batches beyond MaxBatchUpdates are refused up front.
	var big []planarcert.Update
	for i := 0; i < 4; i++ {
		big = append(big, planarcert.EdgeAdd(planarcert.NodeID(i), planarcert.NodeID(i+1)))
	}
	_, ts2 := newTestServer(t, Config{MaxBatchUpdates: 2})
	url2 := newWireSession(t, ts2.URL, "cap") + "/updates"
	frame, err = planarcert.EncodeUpdatesFrame("queue", big)
	if err != nil {
		t.Fatal(err)
	}
	resp = postFrame(t, url2, planarcert.WireContentType, frame)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: status %d", resp.StatusCode)
	}
}

// binaryWatch attaches a binary watch stream and returns its scanner
// and a closer.
func binaryWatch(t *testing.T, url string) (*planarcert.WireScanner, func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch: status %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != planarcert.WireContentType {
		resp.Body.Close()
		t.Fatalf("watch Content-Type %q", ct)
	}
	return planarcert.NewWireScanner(resp.Body), func() { resp.Body.Close() }
}

// applyOne applies a single edge update over the binary protocol.
func applyOne(t *testing.T, base string, u planarcert.Update) {
	t.Helper()
	frame, err := planarcert.EncodeUpdatesFrame("apply", []planarcert.Update{u})
	if err != nil {
		t.Fatal(err)
	}
	resp := postFrame(t, base+"/updates", planarcert.WireContentType, frame)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply: status %d", resp.StatusCode)
	}
}

// postAck posts an ack/nack frame to the watch acknowledgement
// endpoint.
func postAck(t *testing.T, base string, frame []byte, wantCode int) {
	t.Helper()
	resp := postFrame(t, base+"/watch/ack", planarcert.WireContentType, frame)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("watch/ack: status %d, want %d; body %s", resp.StatusCode, wantCode, raw)
	}
}

// TestBinaryWatchResume exercises the version-acknowledged subscription
// loop: hello, live events, ACK, reconnect with replay of the unACKed
// suffix, and NACK rewinding the cursor.
func TestBinaryWatchResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "resume")

	sc, closeWatch := binaryWatch(t, base+"/watch?format=binary&replay=last")
	msg, err := sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("hello: %+v, %v", msg, err)
	}
	sub := msg.Hello.Subscription
	if sub == 0 || msg.Hello.Reset {
		t.Fatalf("hello %+v", msg.Hello)
	}
	// replay=last on a fresh subscription delivers the latest report.
	msg, err = sc.Next()
	if err != nil || msg.Event == nil {
		t.Fatalf("replay event: %+v, %v", msg, err)
	}
	baseline := msg.Event.Version

	// Two live events, in version order.
	applyOne(t, base, planarcert.EdgeAdd(0, 2))
	applyOne(t, base, planarcert.EdgeAdd(1, 3))
	var versions []uint64
	for len(versions) < 2 {
		msg, err = sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Event != nil {
			versions = append(versions, msg.Event.Version)
		}
	}
	if versions[0] != baseline+1 || versions[1] != baseline+2 {
		t.Fatalf("versions %v, baseline %d", versions, baseline)
	}

	// ACK the first live event only, then drop the connection.
	ackFrame, err := planarcert.EncodeWatchAckFrame(sub, versions[0])
	if err != nil {
		t.Fatal(err)
	}
	postAck(t, base, ackFrame, http.StatusNoContent)
	closeWatch()

	// A third event lands while detached.
	applyOne(t, base, planarcert.EdgeRemove(0, 2))

	// Resume: everything after the ACKed version replays, in order.
	sc, closeWatch = binaryWatch(t, fmt.Sprintf("%s/watch?format=binary&sub=%d", base, sub))
	defer closeWatch()
	msg, err = sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("resume hello: %+v, %v", msg, err)
	}
	if msg.Hello.Subscription != sub || msg.Hello.Reset || msg.Hello.ResumeFrom != versions[0] {
		t.Fatalf("resume hello %+v", msg.Hello)
	}
	for _, want := range []uint64{versions[1], versions[1] + 1} {
		msg, err = sc.Next()
		if err != nil || msg.Event == nil {
			t.Fatalf("resume replay: %+v, %v", msg, err)
		}
		if msg.Event.Version != want {
			t.Fatalf("resume replay version %d, want %d", msg.Event.Version, want)
		}
	}

	// ACK everything, then NACK the last event: the cursor rewinds (nack
	// never advances it) so the event replays again on the next attach.
	ackFrame, err = planarcert.EncodeWatchAckFrame(sub, versions[1]+1)
	if err != nil {
		t.Fatal(err)
	}
	postAck(t, base, ackFrame, http.StatusNoContent)
	nackFrame, err := planarcert.EncodeWatchNackFrame(sub, versions[1]+1, "apply failed")
	if err != nil {
		t.Fatal(err)
	}
	postAck(t, base, nackFrame, http.StatusNoContent)
	sc2, closeWatch2 := binaryWatch(t, fmt.Sprintf("%s/watch?format=binary&sub=%d", base, sub))
	defer closeWatch2()
	msg, err = sc2.Next()
	if err != nil || msg.Hello == nil || msg.Hello.Reset {
		t.Fatalf("post-nack hello: %+v, %v", msg, err)
	}
	msg, err = sc2.Next()
	if err != nil || msg.Event == nil || msg.Event.Version != versions[1]+1 {
		t.Fatalf("post-nack replay: %+v, %v", msg, err)
	}
}

// TestBinaryWatchReset pins the reset path: an unknown ?sub= (e.g.
// after a server restart) gets a fresh subscription, Reset=true and the
// latest event as baseline.
func TestBinaryWatchReset(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "reset")
	applyOne(t, base, planarcert.EdgeAdd(0, 2))

	sc, closeWatch := binaryWatch(t, base+"/watch?format=binary&sub=424242")
	defer closeWatch()
	msg, err := sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("hello: %+v, %v", msg, err)
	}
	if !msg.Hello.Reset || msg.Hello.Subscription == 424242 || msg.Hello.Subscription == 0 {
		t.Fatalf("hello %+v", msg.Hello)
	}
	attachVersion := msg.Hello.Version
	msg, err = sc.Next()
	if err != nil || msg.Event == nil || msg.Event.Version != attachVersion {
		t.Fatalf("baseline event: %+v, %v", msg, err)
	}
}

// TestBinaryWatchReplayDisabled pins Config.ReplayEvents < 0: every
// resume is a reset because nothing is retained.
func TestBinaryWatchReplayDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{ReplayEvents: -1})
	base := newWireSession(t, ts.URL, "noreplay")

	sc, closeWatch := binaryWatch(t, base+"/watch?format=binary")
	msg, err := sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("hello: %+v, %v", msg, err)
	}
	sub := msg.Hello.Subscription
	applyOne(t, base, planarcert.EdgeAdd(0, 2))
	msg, err = sc.Next()
	if err != nil || msg.Event == nil {
		t.Fatalf("event: %+v, %v", msg, err)
	}
	closeWatch()

	applyOne(t, base, planarcert.EdgeAdd(1, 3))
	sc, closeWatch = binaryWatch(t, fmt.Sprintf("%s/watch?format=binary&sub=%d", base, sub))
	defer closeWatch()
	msg, err = sc.Next()
	if err != nil || msg.Hello == nil {
		t.Fatalf("resume hello: %+v, %v", msg, err)
	}
	if !msg.Hello.Reset {
		t.Fatalf("resume without a ring must reset: %+v", msg.Hello)
	}
}

// TestWatchAckErrors pins the acknowledgement endpoint's failure modes.
func TestWatchAckErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "ackerr")

	ack, err := planarcert.EncodeWatchAckFrame(999, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown subscription.
	postAck(t, base, ack, http.StatusNotFound)
	// Wrong media type.
	resp := postFrame(t, base+"/watch/ack", "application/json", []byte("{}"))
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("json ack: status %d", resp.StatusCode)
	}
	if hint := resp.Header.Get("Accept-Post"); hint != planarcert.WireContentType {
		t.Fatalf("Accept-Post %q", hint)
	}
	resp.Body.Close()
	// Garbage body.
	postAck(t, base, []byte("garbage"), http.StatusBadRequest)
	// Wrong frame kind.
	ev, err := planarcert.EncodeEventFrame(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	postAck(t, base, ev, http.StatusBadRequest)
	// Unknown session.
	resp = postFrame(t, ts.URL+"/v1/sessions/ghost/watch/ack", planarcert.WireContentType, ack)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost session: status %d", resp.StatusCode)
	}
	// Bad ?format= on watch itself.
	resp, err = http.Get(base + "/watch?format=msgpack")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: status %d", resp.StatusCode)
	}
}

// TestBroadcastSingleMarshal verifies the fan-out marshals each report
// once per format: every JSON watcher receives the same *watchEvent
// with the same pre-encoded byte slice, and the binary encoding is only
// materialized when a binary watcher is attached.
func TestBroadcastSingleMarshal(t *testing.T) {
	ms := newTestSession(t, "fanout")
	defer ms.shutdown(false)

	st1, ok1 := ms.subscribe(false, 0, false)
	st2, ok2 := ms.subscribe(false, 0, false)
	ch1, ch2 := st1.ch, st2.ch
	if !ok1 || !ok2 {
		t.Fatal("watch failed")
	}
	rep := &planarcert.SessionReport{Generation: 5, Mode: "repair", Accepted: true}
	if delivered, dropped := ms.broadcast(rep); delivered != 2 || dropped != 0 {
		t.Fatalf("broadcast: delivered %d dropped %d", delivered, dropped)
	}
	ev1, ev2 := <-ch1, <-ch2
	if ev1 != ev2 {
		t.Fatal("watchers received distinct events — fan-out re-marshals per watcher")
	}
	if ev1.json == nil {
		t.Fatal("JSON encoding not materialized for JSON watchers")
	}
	if ev1.bin != nil {
		t.Fatal("binary encoding materialized with no binary watcher attached")
	}

	// With a binary watcher attached, one event carries both encodings.
	st3, ok := ms.subscribe(true, 0, false)
	if !ok {
		t.Fatal("binary subscribe failed")
	}
	defer ms.unwatch(st3.id)
	ch3 := st3.ch
	ms.broadcast(rep)
	ev1, ev3 := <-ch1, <-ch3
	<-ch2
	if ev1 != ev3 || ev3.bin == nil || ev3.json == nil {
		t.Fatalf("mixed fan-out: ev1==ev3 %v, bin %v, json %v", ev1 == ev3, ev3.bin != nil, ev3.json != nil)
	}
	// The stream bytes are exactly what the JSON path used to write: one
	// HTML-unescaped json.Encoder line.
	if !bytes.HasSuffix(ev1.json, []byte("\n")) || !bytes.Contains(ev1.json, []byte(`"generation":5`)) {
		t.Fatalf("json event bytes %q", ev1.json)
	}
}

// newTestSession builds a registry-less session on a 4-cycle for unit
// tests of the watch plumbing.
func newTestSession(t *testing.T, name string) *session {
	t.Helper()
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
	ps, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{WatchBuffer: 4, ReplayEvents: 8})
	return srv.newSession(name, planarcert.SchemePlanarity, qos.Batch, ps, persistOpts{})
}

// TestSubscriptionEviction pins the subscription cap: minting past
// maxSubscriptions evicts the smallest (oldest) identifier.
func TestSubscriptionEviction(t *testing.T) {
	ms := newTestSession(t, "evict")
	defer ms.shutdown(false)
	ms.watchMu.Lock()
	var first uint64
	for i := 0; i < maxSubscriptions+1; i++ {
		id := ms.mintSubLocked()
		if i == 0 {
			first = id
		}
	}
	_, stillThere := ms.subs[first]
	n := len(ms.subs)
	ms.watchMu.Unlock()
	if stillThere || n != maxSubscriptions {
		t.Fatalf("eviction: first present %v, %d subs", stillThere, n)
	}
}

// TestRingCoverage pins ringAfterLocked: a gap the ring no longer
// covers resets instead of replaying a hole.
func TestRingCoverage(t *testing.T) {
	ms := newTestSession(t, "ring")
	defer ms.shutdown(false)
	gen := ms.lastVersion
	for i := 0; i < 12; i++ { // ringCap is 8; versions gen+1..gen+12
		ms.broadcast(&planarcert.SessionReport{Generation: gen + uint64(i+1)})
	}
	ms.watchMu.Lock()
	defer ms.watchMu.Unlock()
	// Covered: acked the event before the ring's first entry.
	replay, reset := ms.ringAfterLocked(gen + 4)
	if reset || len(replay) != 8 || replay[0].version != gen+5 {
		t.Fatalf("covered: reset %v, %d events, first %d", reset, len(replay), replay[0].version)
	}
	// Fully caught up: nothing to replay.
	replay, reset = ms.ringAfterLocked(gen + 12)
	if reset || len(replay) != 0 {
		t.Fatalf("caught up: reset %v, %d events", reset, len(replay))
	}
	// Uncovered gap: the ring starts after acked+1.
	replay, reset = ms.ringAfterLocked(gen + 1)
	if !reset || len(replay) != 1 || replay[0].version != gen+12 {
		t.Fatalf("uncovered: reset %v, %d events", reset, len(replay))
	}
}

// TestJSONWatchUnchanged guards the satellite's compatibility claim:
// the single-marshal refactor must not change a byte of the NDJSON
// watch stream.
func TestJSONWatchUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := newWireSession(t, ts.URL, "jsonwatch")

	resp, err := http.Get(base + "/watch?replay=last")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	applyOne(t, base, planarcert.EdgeAdd(0, 2))
	deadline := time.After(5 * time.Second)
	lines := make(chan []byte, 2)
	go func() {
		buf := make([]byte, 64<<10)
		n, _ := resp.Body.Read(buf)
		lines <- buf[:n]
	}()
	select {
	case raw := <-lines:
		for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if line[len(line)-1] != '\n' {
				t.Fatalf("stream chunk not newline-terminated: %q", line)
			}
			var rep planarcert.SessionReport
			if err := json.Unmarshal(line, &rep); err != nil {
				t.Fatalf("stream line %q: %v", line, err)
			}
			// json.Encoder with SetEscapeHTML(false) and a trailing newline
			// is the frozen line shape; re-encoding reproduces it exactly.
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(&rep); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), line) {
				t.Fatalf("stream line not canonical:\n got %q\nwant %q", line, buf.Bytes())
			}
		}
	case <-deadline:
		t.Fatal("no watch event within deadline")
	}
}
