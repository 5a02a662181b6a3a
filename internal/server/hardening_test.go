package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestParseBearerToken(t *testing.T) {
	cases := []struct {
		header string
		token  string
		ok     bool
	}{
		{"Bearer secret", "secret", true},
		{"bearer secret", "secret", true},
		{"BEARER secret", "secret", true},
		{"Bearer   padded  ", "padded", true},
		{"Bearer ", "", false},
		{"Bearer", "", false},
		{"", "", false},
		{"Basic dXNlcg==", "", false},
		{"Bearershort", "", false},
	}
	for _, c := range cases {
		tok, ok := parseBearerToken(c.header)
		if tok != c.token || ok != c.ok {
			t.Errorf("parseBearerToken(%q) = (%q, %v), want (%q, %v)", c.header, tok, ok, c.token, c.ok)
		}
	}
}

// TestAuthMiddleware pins the bearer-token gate: without a valid token
// every API endpoint answers 401 with a WWW-Authenticate challenge,
// while probes and /metrics stay open so infrastructure never needs
// credentials.
func TestAuthMiddleware(t *testing.T) {
	_, ts := newTestServer(t, Config{AuthTokens: []string{"alpha", "beta"}})

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get("/v1/sessions", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate challenge")
	}
	if resp := get("/v1/sessions", "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token: status %d, want 401", resp.StatusCode)
	}
	// Either configured token passes.
	for _, tok := range []string{"alpha", "beta"} {
		if resp := get("/v1/sessions", tok); resp.StatusCode != http.StatusOK {
			t.Fatalf("token %q: status %d, want 200", tok, resp.StatusCode)
		}
	}
	// Probes and metrics bypass auth.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		if resp := get(path, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s without token: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestRateLimiterBuckets drives the token-bucket limiter with a fake
// clock: burst spends, refill at the configured rate, and key
// independence are all deterministic.
func TestRateLimiterBuckets(t *testing.T) {
	now := time.Unix(0, 0)
	rl := newRateLimiter(2, 3, func() time.Time { return now })

	for i := 0; i < 3; i++ {
		if !rl.allow("a") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if rl.allow("a") {
		t.Fatal("request beyond burst allowed")
	}
	// A different principal has its own bucket.
	if !rl.allow("b") {
		t.Fatal("independent key denied")
	}
	// Half a second at 2 tokens/s refills one token — exactly one more
	// request.
	now = now.Add(500 * time.Millisecond)
	if !rl.allow("a") {
		t.Fatal("refilled token denied")
	}
	if rl.allow("a") {
		t.Fatal("second request after 1-token refill allowed")
	}
	// A long idle period caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !rl.allow("a") {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if rl.allow("a") {
		t.Fatal("idle credit exceeded burst")
	}

	// A nil limiter (rate limiting off) allows everything.
	var off *rateLimiter
	if !off.allow("x") {
		t.Fatal("nil limiter denied a request")
	}
}

func TestRateLimiterPrune(t *testing.T) {
	now := time.Unix(0, 0)
	rl := newRateLimiter(100, 1, func() time.Time { return now })
	for i := 0; i < maxRateBuckets; i++ {
		rl.allow(string(rune('a'+i%26)) + string(rune('0'+i%10)) + time.Duration(i).String())
	}
	if len(rl.buckets) > maxRateBuckets {
		t.Fatalf("limiter grew to %d buckets before prune", len(rl.buckets))
	}
	// Everything has refilled after a long idle gap; the next insert
	// prunes the map instead of growing it without bound.
	now = now.Add(time.Hour)
	rl.allow("fresh")
	if len(rl.buckets) > 2 {
		t.Fatalf("prune left %d buckets, want <= 2", len(rl.buckets))
	}
}

// TestRateLimitOverHTTP checks the 429 surface: a client hammering past
// its burst gets Retry-After, and the rejection is counted.
func TestRateLimitOverHTTP(t *testing.T) {
	srv, ts := newTestServer(t, Config{RateLimit: 0.001, RateBurst: 3})

	var last *http.Response
	denied := 0
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/schemes")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			denied++
			last = resp
		}
	}
	if denied != 2 {
		t.Fatalf("denied %d of 5 requests with burst 3, want 2", denied)
	}
	if last.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := srv.met.rateLimited.Load(); got != 2 {
		t.Fatalf("rate-limited counter = %d, want 2", got)
	}
	// Probes stay reachable for a throttled client.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while throttled: %d", resp.StatusCode)
	}
}

// TestLRUEviction pins the eviction policy: at MaxSessions with
// EvictLRU on, creating one more session evicts the least-recently-used
// one instead of rejecting, and recent activity protects a session.
func TestLRUEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 2, EvictLRU: true})

	mk := func(name string) {
		t.Helper()
		doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]interface{}{
			"name": name, "graph": map[string]string{"edge_list": "0 1\n1 2\n"},
		}, http.StatusCreated, nil)
	}
	mk("old")
	time.Sleep(2 * time.Millisecond) // order the lastUsed stamps
	mk("busy")
	time.Sleep(2 * time.Millisecond)
	// Touch "old" so "busy" becomes the LRU victim.
	doJSON(t, "POST", ts.URL+"/v1/sessions/old/updates", `{"op":"add_edge","a":0,"b":2}`, http.StatusOK, nil)
	time.Sleep(2 * time.Millisecond)

	mk("new")
	if n := srv.SessionCount(); n != 2 {
		t.Fatalf("session count after eviction = %d, want 2", n)
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions/busy", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/sessions/old", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/v1/sessions/new", nil, http.StatusOK, nil)
	if got := srv.met.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}

	// Without EvictLRU the same pressure still rejects with 429.
	_, ts2 := newTestServer(t, Config{MaxSessions: 1})
	doJSON(t, "POST", ts2.URL+"/v1/sessions", map[string]interface{}{"name": "only"}, http.StatusCreated, nil)
	doJSON(t, "POST", ts2.URL+"/v1/sessions", map[string]interface{}{"name": "over"}, http.StatusTooManyRequests, nil)
}

// TestQoSClassPlumbing checks the class surface: requested classes land
// in the status, bad ones reject, and the default applies.
func TestQoSClassPlumbing(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultQoS: "background"})

	var st SessionStatus
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]interface{}{
		"name": "fast", "qos": "interactive",
	}, http.StatusCreated, &st)
	if st.QoS != "interactive" {
		t.Fatalf("qos = %q, want interactive", st.QoS)
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]interface{}{
		"name": "dflt",
	}, http.StatusCreated, &st)
	if st.QoS != "background" {
		t.Fatalf("default qos = %q, want background", st.QoS)
	}
	doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]interface{}{
		"name": "bad", "qos": "turbo",
	}, http.StatusBadRequest, nil)
}

// FuzzAuthRateKey fuzzes the request-identity path the middleware runs
// on every request: bearer-token parsing and rate-limit principal
// derivation must never panic, return an empty key, or let two calls on
// one key disagree about bucket identity.
func FuzzAuthRateKey(f *testing.F) {
	f.Add("Bearer abc", "1.2.3.4:56")
	f.Add("bearer  spaced  ", "[::1]:80")
	f.Add("", "")
	f.Add("Basic xyz", "host-no-port")
	f.Add("BEARER \x00bin", "1.2.3.4")
	f.Fuzz(func(t *testing.T, header, remote string) {
		tok, ok := parseBearerToken(header)
		if ok && tok == "" {
			t.Fatal("parseBearerToken returned ok with empty token")
		}
		r := httptest.NewRequest("GET", "/v1/sessions", nil)
		r.RemoteAddr = remote
		key := clientKey(r, tok)
		if key == "" {
			t.Fatal("clientKey returned empty key")
		}
		if key != clientKey(r, tok) {
			t.Fatal("clientKey is not deterministic")
		}
		now := time.Unix(0, 0)
		rl := newRateLimiter(1, 1, func() time.Time { return now })
		if !rl.allow(key) {
			t.Fatal("fresh bucket denied its burst")
		}
		if rl.allow(key) {
			t.Fatal("bucket of burst 1 allowed a second request")
		}
	})
}
