package server

import (
	"crypto/subtle"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/qos"
)

// exemptPath reports whether a request path bypasses auth and rate
// limiting: probes and metrics scrapers are infrastructure, not tenants,
// and locking a load balancer out of /readyz turns a lost token into an
// outage.
func exemptPath(p string) bool {
	return p == "/healthz" || p == "/readyz" || p == "/metrics"
}

// parseBearerToken extracts the token from an Authorization header,
// accepting any case for the "Bearer" keyword per RFC 6750.
func parseBearerToken(h string) (string, bool) {
	const prefix = "bearer "
	if len(h) < len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	tok := strings.TrimSpace(h[len(prefix):])
	return tok, tok != ""
}

// authorize checks the request against the configured bearer tokens.
// With no tokens configured every request passes (auth off). The
// comparison runs constant-time over every configured token — no early
// exit — so response timing leaks neither token bytes nor which token
// matched.
func (s *Server) authorize(r *http.Request) (token string, ok bool) {
	if len(s.cfg.AuthTokens) == 0 {
		return "", true
	}
	tok, ok := parseBearerToken(r.Header.Get("Authorization"))
	if !ok {
		return "", false
	}
	match := 0
	for _, want := range s.cfg.AuthTokens {
		match |= subtle.ConstantTimeCompare([]byte(tok), []byte(want))
	}
	return tok, match == 1
}

// clientKey identifies the rate-limit principal: the bearer token when
// auth is on (one bucket per credential, shared across its hosts), the
// remote address otherwise.
func clientKey(r *http.Request, token string) string {
	if token != "" {
		return "token:" + token
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// maxRateBuckets bounds the limiter map; past it, buckets idle long
// enough to have refilled completely are pruned (they are
// indistinguishable from fresh ones, so dropping them changes nothing).
const maxRateBuckets = 4096

// rateLimiter is a per-client token-bucket limiter: each principal gets
// burst tokens that refill at rate per second. Safe for concurrent use.
// The clock is injected so tests can drive refill deterministically.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*rateBucket
}

type rateBucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*rateBucket),
	}
}

// allow spends one token from key's bucket, reporting false when the
// bucket is empty. A nil limiter allows everything.
func (rl *rateLimiter) allow(key string) bool {
	if rl == nil {
		return true
	}
	now := rl.now()
	rl.mu.Lock()
	defer rl.mu.Unlock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= maxRateBuckets {
			rl.pruneLocked(now)
		}
		b = &rateBucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens += rl.rate * now.Sub(b.last).Seconds()
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked drops buckets that have been idle long enough to refill
// completely; the caller holds rl.mu.
func (rl *rateLimiter) pruneLocked(now time.Time) {
	full := time.Duration(rl.burst / rl.rate * float64(time.Second))
	for k, b := range rl.buckets {
		if now.Sub(b.last) >= full {
			delete(rl.buckets, k)
		}
	}
}

// acquireExec admits one batch execution through the fair-share
// admission scheduler, waiting up to Config.AdmitTimeout (or the
// client's disconnect). The wait is recorded in the admit-wait
// histogram and, when tracing, as an admit span on the batch trace —
// so a storm victim's latency decomposes into "queued behind the
// storm" rather than vanishing into the batch total.
func (s *Server) acquireExec(c *qos.Claimant, sp *obs.Span, cancel <-chan struct{}) bool {
	ad := sp.Child(obs.SpanAdmit)
	ad.SetStr("class", c.Class().String())
	start := time.Now()
	ok := c.AcquireWait(s.cfg.AdmitTimeout, cancel)
	s.met.admitWait.observe(time.Since(start).Seconds())
	ad.End()
	if !ok {
		s.met.admitTimeouts.Add(1)
	}
	return ok
}

// evictForSpaceLocked makes room for one more session by removing the
// least-recently-used ones from the registry; the caller holds s.mu for
// writing and must shut the returned victims down after unlocking. A
// durable victim's files stay on disk, so an evicted session is
// recoverable at the next boot — eviction sheds memory, not state.
func (s *Server) evictForSpaceLocked() []*session {
	var victims []*session
	for len(s.sessions) >= s.cfg.MaxSessions {
		var (
			vname  string
			victim *session
		)
		for name, ms := range s.sessions {
			if victim == nil || ms.lastUsed.Load() < victim.lastUsed.Load() {
				vname, victim = name, ms
			}
		}
		if victim == nil {
			break
		}
		delete(s.sessions, vname)
		victims = append(victims, victim)
	}
	return victims
}

// finishEviction drains evicted sessions outside s.mu: each absorbs its
// queued updates, snapshots if durable, and terminates its watchers.
func (s *Server) finishEviction(victims []*session) {
	for _, ms := range victims {
		ms.shutdown(true)
		s.met.sessionsEvicted.Add(1)
	}
}
