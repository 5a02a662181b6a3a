// Command planarcertd serves compact planarity certification over
// HTTP/JSON: named incremental sessions (create, stream updates, watch
// absorption reports, delete) plus stateless one-shot certify/verify,
// health and Prometheus metrics.
//
// Usage:
//
//	planarcertd -addr :7420 -budget 8 -max-sessions 1024
//	planarcertd -addr :7420 -data-dir /var/lib/planarcert -fsync always
//
// Quick round trip:
//
//	curl -s localhost:7420/healthz
//	curl -s -X POST localhost:7420/v1/sessions \
//	     -d '{"name":"s1","scheme":"planarity","graph":{"edges":[[0,1],[1,2],[2,0]]}}'
//	curl -s -X POST 'localhost:7420/v1/sessions/s1/updates' \
//	     -H 'Content-Type: application/x-ndjson' \
//	     -d '{"op":"add_node","a":3}
//	{"op":"add_edge","a":2,"b":3}'
//	curl -s localhost:7420/v1/sessions/s1/watch   # streams NDJSON reports
//	curl -s -X DELETE localhost:7420/v1/sessions/s1
//
// High-throughput fleets can switch both directions to the binary frame
// protocol (Content-Type application/x-planarcert-frame on POST
// .../updates; .../watch?format=binary for a version-acknowledged event
// stream resumable with ?sub= after reconnect; -watch-replay bounds the
// per-session replay ring). The frame format is frozen; see
// ARCHITECTURE.md's "Wire protocol" section.
//
// All sessions share one bounded verification worker budget (-budget),
// so heavy traffic degrades gracefully toward per-session sequential
// verification instead of oversubscribing the machine. Both that
// budget and batch execution itself (-exec-slots) are granted by a
// weighted fair-share scheduler over per-session QoS classes
// (interactive/batch/background; "qos" in the create body,
// -default-qos otherwise, weights tunable with -qos-weights), so a
// re-prove storm in one session cannot starve repairs in another; a
// batch that cannot be admitted within -admit-timeout is shed with 503.
//
// Hardening: -auth-token (repeatable) requires a bearer token on every
// non-probe request; -rate-limit/-rate-burst apply a per-client token
// bucket (keyed by bearer token, else client IP); and -evict-lru evicts
// the least-recently-used session instead of refusing creates at
// -max-sessions (durable victims remain recoverable on disk).
//
// With -data-dir set the daemon is durable: every applied batch is
// written to a per-session write-ahead log before it is acked, sessions
// snapshot their certificates every -snapshot-every batches (keyed by
// the topology fingerprint), and on boot each session is restored from
// its newest valid snapshot plus the WAL tail and re-validated by the
// proof-labeling scheme's own verification sweep. /readyz answers 503
// until that replay completes; on SIGTERM/SIGINT the daemon stops
// accepting batches, drains in-flight applies, flushes the WAL, and
// writes final snapshots before exiting.
//
// Observability: every batch is traced (round-level spans with
// queue-wait, budget-wait, prove, sweep, and persist phases) into a
// ring served on /debug/traces and /debug/traces/{session}; tune with
// -trace-ring, -trace-sample, and -trace-slow. -debug-addr exposes
// net/http/pprof on a SEPARATE listener (keep it on loopback; profiles
// reveal heap contents). -version prints the build identity that
// /metrics reports as planarcertd_build_info.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/buildinfo"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wal"
)

func main() {
	addr := flag.String("addr", ":7420", "listen address")
	budget := flag.Int("budget", 0, "shared verification worker slots across all sessions (0 = GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", 1024, "maximum number of live sessions")
	watchBuffer := flag.Int("watch-buffer", 16, "per-watcher report buffer before drops")
	replayEvents := flag.Int("watch-replay", 0, "per-session events retained for binary watch resume (0 = 64, negative = off)")
	workers := flag.Int("workers", 0, "per-verification worker bound (0 = GOMAXPROCS)")
	shard := flag.Int("shard", 0, "nodes a worker claims per handoff (0 = engine default)")
	seq := flag.Bool("seq", false, "force single-goroutine verification per session")
	dataDir := flag.String("data-dir", "", "data directory for WALs and snapshots (empty = no persistence)")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy: always (acked batches survive power loss) or never (survive crashes only)")
	snapshotEvery := flag.Int("snapshot-every", 32, "logged batches between automatic per-session snapshots")
	traceRing := flag.Int("trace-ring", 256, "retained traces on /debug/traces (negative = tracing off)")
	traceSample := flag.Int("trace-sample", 1, "keep every Nth trace (slow traces are always kept)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "batch duration above which a trace is always retained")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty = pprof off)")
	var authTokens tokenList
	flag.Var(&authTokens, "auth-token", "bearer token required on every request except probes and /metrics (repeatable; empty = auth off)")
	rateLimit := flag.Float64("rate-limit", 0, "sustained per-client requests/second (client = bearer token, else remote host; 0 = off)")
	rateBurst := flag.Int("rate-burst", 0, "per-client burst allowance (0 = max(8, 2x rate-limit))")
	qosWeights := flag.String("qos-weights", "", "fair-share weights as class=weight pairs, e.g. interactive=16,batch=4,background=1 (empty = defaults)")
	execSlots := flag.Int("exec-slots", 0, "concurrent batch executions across all sessions (0 = max(4, 2x GOMAXPROCS))")
	admitTimeout := flag.Duration("admit-timeout", 0, "max admission-queue wait before a batch is rejected 503 (0 = 30s)")
	defaultQoS := flag.String("default-qos", "", "QoS class of sessions that do not request one, and of restored sessions (empty = batch)")
	evictLRU := flag.Bool("evict-lru", false, "evict the least-recently-used session instead of rejecting creation at -max-sessions")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "planarcertd")
		return
	}

	policy, err := wal.ParseSyncPolicy(*fsyncFlag)
	if err != nil {
		log.Fatalf("planarcertd: %v", err)
	}
	weights, err := parseQoSWeights(*qosWeights)
	if err != nil {
		log.Fatalf("planarcertd: %v", err)
	}
	if *defaultQoS != "" {
		if _, err := planarcert.ParseQoSClass(*defaultQoS); err != nil {
			log.Fatalf("planarcertd: -default-qos: %v", err)
		}
	}

	srv := server.New(server.Config{
		MaxSessions:      *maxSessions,
		BudgetSlots:      *budget,
		WatchBuffer:      *watchBuffer,
		ReplayEvents:     *replayEvents,
		DataDir:          *dataDir,
		Fsync:            policy,
		SnapshotEvery:    *snapshotEvery,
		TraceRing:        *traceRing,
		TraceSampleEvery: *traceSample,
		TraceSlow:        *traceSlow,
		AuthTokens:       authTokens,
		RateLimit:        *rateLimit,
		RateBurst:        *rateBurst,
		QoSWeights:       weights,
		ExecSlots:        *execSlots,
		AdmitTimeout:     *admitTimeout,
		DefaultQoS:       *defaultQoS,
		EvictLRU:         *evictLRU,
		Engine: planarcert.EngineConfig{
			Sequential: *seq,
			Workers:    *workers,
			ShardSize:  *shard,
		},
	})

	// The profiling surface binds its own (typically loopback) address:
	// pprof exposes heap contents and must never ride on the service
	// port. Registering explicitly on a fresh mux — rather than blank-
	// importing pprof — keeps DefaultServeMux out of the picture.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			log.Printf("planarcertd pprof listening on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("planarcertd: pprof: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// No WriteTimeout: watch streams are long-lived by design.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before recovering so /healthz and /readyz are reachable
	// during a long replay (session endpoints answer 503 until ready).
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("planarcertd listening on %s (budget=%d slots, max %d sessions)",
		*addr, *budget, *maxSessions)

	recovered := make(chan error, 1)
	go func() { recovered <- srv.Recover() }()
	select {
	case err := <-recovered:
		if err != nil {
			log.Fatalf("planarcertd: recover: %v", err)
		}
		if *dataDir != "" {
			log.Printf("planarcertd recovered %d sessions from %s", srv.SessionCount(), *dataDir)
		}
	case <-ctx.Done():
		log.Printf("planarcertd interrupted during recovery")
		os.Exit(1)
	case err := <-errCh:
		log.Fatalf("planarcertd: %v", err)
	}

	select {
	case <-ctx.Done():
		log.Printf("planarcertd shutting down")
	case err := <-errCh:
		log.Fatalf("planarcertd: %v", err)
	}

	// Ordered drain: Close first rejects new batches and session
	// creations, lets in-flight applies finish, absorbs queued updates
	// as final logged batches, writes final snapshots, and closes every
	// WAL; it also terminates watch streams so Shutdown can drain the
	// HTTP connections afterwards.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Close()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("planarcertd: shutdown: %v", err)
	}
}

// tokenList collects repeated -auth-token flags.
type tokenList []string

func (t *tokenList) String() string { return strings.Join(*t, ",") }

func (t *tokenList) Set(v string) error {
	if v == "" {
		return errors.New("empty token")
	}
	*t = append(*t, v)
	return nil
}

// parseQoSWeights parses "class=weight" pairs ("interactive=16,batch=4")
// into a weight map; classes left out keep their defaults.
func parseQoSWeights(s string) (map[planarcert.QoSClass]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[planarcert.QoSClass]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-qos-weights: %q is not class=weight", pair)
		}
		class, err := planarcert.ParseQoSClass(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-qos-weights: %v", err)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-qos-weights: weight for %s must be a positive integer, got %q", class, val)
		}
		out[class] = w
	}
	return out, nil
}
