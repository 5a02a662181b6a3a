package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flag"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wal"
)

// recoveryBench measures what durability buys at boot: it builds a
// large durable session, then times three kinds of boot of the same
// topology, each the best of -count runs. "crash_replay" recovers from
// a SIGKILL-shaped state (snapshot plus a WAL tail): the verification
// sweep, then localized repairs absorb the tail on repair state decoded
// from the restored certificates, and nothing is lost; the clean tail
// stays in the log, so the boot writes no snapshot. "replay" recovers
// from a clean shutdown (current snapshot, empty tail): just the
// self-validating verification sweep, the fast path every graceful
// restart takes. "reprove" certifies the same network from scratch —
// the cost every boot would pay without persistence. The snapshot is
// committed as BENCH_recovery.json and guarded by
// TestBenchSnapshotsWellFormed, whose bars require both replays to beat
// the re-prove.
func recoveryBench(args []string) error {
	fs := flag.NewFlagSet("recoverybench", flag.ExitOnError)
	n := fs.Int("n", 50000, "nodes in the benchmark session's path network")
	tail := fs.Int("tail", 4, "update batches left in the WAL tail past the boot snapshot")
	ops := fs.Int("ops", 4, "chord adds per tail batch")
	count := fs.Int("count", 5, "boots and re-proves timed per phase; the best is reported")
	out := fs.String("out", "BENCH_recovery.json", "snapshot output path (empty = stdout only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 1 {
		return fmt.Errorf("-count %d: need at least one run", *count)
	}

	dir, err := os.MkdirTemp("", "planarcert-recoverybench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := server.Config{
		DataDir:       filepath.Join(dir, "crash"),
		Fsync:         wal.SyncNever,
		SnapshotEvery: 1 << 20, // keep the tail in the WAL, not folded into a snapshot
	}

	// Phase 1: build the durable state, then crash (no graceful close, so
	// recovery must replay the WAL tail, not just load a final snapshot).
	srvA := server.New(cfg)
	if err := srvA.Recover(); err != nil {
		return err
	}
	tsA := httptest.NewServer(srvA.Handler())
	var spec bytes.Buffer
	for i := 0; i < *n-1; i++ {
		fmt.Fprintf(&spec, "%d %d\n", i, i+1)
	}
	body, err := json.Marshal(map[string]interface{}{
		"name":   "bench",
		"scheme": "planarity",
		"graph":  map[string]string{"edge_list": spec.String()},
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(tsA.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create: status %d: %s", resp.StatusCode, raw)
	}
	// Disjoint short chords never cross, so the network stays planar.
	var chords [][2]int64
	nextChord := int64(0)
	for b := 0; b < *tail; b++ {
		var lines bytes.Buffer
		for o := 0; o < *ops; o++ {
			fmt.Fprintf(&lines, "{\"op\":\"add_edge\",\"a\":%d,\"b\":%d}\n", nextChord, nextChord+2)
			chords = append(chords, [2]int64{nextChord, nextChord + 2})
			nextChord += 3
		}
		resp, err := http.Post(tsA.URL+"/v1/sessions/bench/updates", "application/x-ndjson", &lines)
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("tail batch %d: status %d: %s", b, resp.StatusCode, raw)
		}
	}
	tsA.Close() // crash: srvA is abandoned, its final snapshot never written
	srvA = nil  // release the dead server's heap before timing recovery
	runtime.GC()

	wantEdges := *n - 1 + len(chords)
	verifyBoot := func(srv *server.Server) error {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/v1/sessions/bench")
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			Certified bool `json:"certified"`
			Nodes     int  `json:"nodes"`
			Edges     int  `json:"edges"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		if !st.Certified || st.Nodes != *n || st.Edges != wantEdges {
			return fmt.Errorf("bad recovery: %s (want %d nodes, %d edges, certified)", raw, *n, wantEdges)
		}
		return nil
	}
	// boot times one recovery of dataDir, checks it and shuts the server
	// down gracefully, which leaves a current snapshot and an empty tail.
	boot := func(dataDir string) (time.Duration, error) {
		bc := cfg
		bc.DataDir = dataDir
		srv := server.New(bc)
		t0 := time.Now()
		if err := srv.Recover(); err != nil {
			return 0, err
		}
		el := time.Since(t0)
		err := verifyBoot(srv)
		srv.Close()
		runtime.GC()
		return el, err
	}

	// The network of phase 4: the crashed session's final topology.
	net := planarcert.NewNetwork()
	for i := 0; i < *n; i++ {
		if err := net.AddNode(planarcert.NodeID(i)); err != nil {
			return err
		}
	}
	for i := 0; i < *n-1; i++ {
		if err := net.AddEdge(planarcert.NodeID(i), planarcert.NodeID(i+1)); err != nil {
			return err
		}
	}
	for _, c := range chords {
		if err := net.AddEdge(planarcert.NodeID(c[0]), planarcert.NodeID(c[1])); err != nil {
			return err
		}
	}

	// Each round times the three boots back to back, so drift in the
	// host's speed reaches all three alike.
	var crashReplay, replay, reprove time.Duration
	bootDir := filepath.Join(dir, "boot")
	for i := 0; i < *count; i++ {
		// Phase 2: crash boot — snapshot + verification sweep + WAL tail,
		// absorbed by repairs — on a fresh copy of the crashed directory.
		if err := os.RemoveAll(bootDir); err != nil {
			return err
		}
		if err := copyDir(cfg.DataDir, bootDir); err != nil {
			return err
		}
		el, err := boot(bootDir)
		if err != nil {
			return err
		}
		crashReplay = bestOf(crashReplay, el)

		// Phase 3: clean boot — the crash boot's graceful Close left a
		// current snapshot and an empty tail: restore is the
		// self-validating verification sweep alone, no prover run.
		if el, err = boot(bootDir); err != nil {
			return err
		}
		replay = bestOf(replay, el)

		// Phase 4: cold re-prove of the identical network from scratch —
		// what every boot would cost without persistence.
		t0 := time.Now()
		sess, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
		if err != nil {
			return err
		}
		reprove = bestOf(reprove, time.Since(t0))
		if !sess.Certified() {
			return fmt.Errorf("cold re-prove did not certify")
		}
		runtime.GC()
	}

	speedup := float64(reprove) / float64(replay)
	fmt.Printf("== recoverybench: n=%d, %d-batch WAL tail, best of %d ==\n", *n, *tail, *count)
	fmt.Printf("clean replay:    %s (snapshot + verification sweep only)\n", replay)
	fmt.Printf("crash replay:    %s (snapshot + tail absorbed by repairs, nothing lost)\n", crashReplay)
	fmt.Printf("cold re-prove:   %s\n", reprove)
	fmt.Printf("speedup:         %.1fx (clean replay vs cold re-prove)\n", speedup)

	if *out == "" {
		return nil
	}
	type benchEntry struct {
		Name    string `json:"name"`
		NsPerOp int64  `json:"ns_per_op"`
	}
	snap := struct {
		Note               string       `json:"note"`
		Date               string       `json:"date"`
		N                  int          `json:"n"`
		TailBatches        int          `json:"tail_batches"`
		Count              int          `json:"count"`
		ReplaySeconds      float64      `json:"replay_seconds"`
		CrashReplaySeconds float64      `json:"crash_replay_seconds"`
		ReproveSeconds     float64      `json:"reprove_seconds"`
		Speedup            float64      `json:"speedup"`
		Benchmarks         []benchEntry `json:"benchmarks"`
	}{
		Note: fmt.Sprintf("boot recovery vs cold re-prove at n=%d, each the best of %d runs: 'replay' boots from a clean shutdown "+
			"(current snapshot, empty WAL tail — just the self-validating verification sweep); 'crash_replay' "+
			"boots from a SIGKILL-shaped state (snapshot + %d-batch WAL tail, absorbed by localized repairs on "+
			"repair state decoded from the restored certificates; the clean tail stays in the log, so the boot "+
			"writes no snapshot); 'reprove' certifies the same network from "+
			"scratch; regenerate with `go run ./cmd/experiments recoverybench`", *n, *count, *tail),
		Date:               time.Now().Format("2006-01-02"),
		N:                  *n,
		TailBatches:        *tail,
		Count:              *count,
		ReplaySeconds:      replay.Seconds(),
		CrashReplaySeconds: crashReplay.Seconds(),
		ReproveSeconds:     reprove.Seconds(),
		Speedup:            speedup,
		Benchmarks: []benchEntry{
			{Name: fmt.Sprintf("Recovery/n=%d/replay", *n), NsPerOp: replay.Nanoseconds()},
			{Name: fmt.Sprintf("Recovery/n=%d/crash_replay", *n), NsPerOp: crashReplay.Nanoseconds()},
			{Name: fmt.Sprintf("Recovery/n=%d/reprove", *n), NsPerOp: reprove.Nanoseconds()},
		},
	}
	rawOut, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	rawOut = append(rawOut, '\n')
	if err := os.WriteFile(*out, rawOut, 0o644); err != nil {
		return err
	}
	fmt.Printf("snapshot:        %s\n", *out)
	return nil
}

// bestOf returns the shorter of the best time so far (0 before the
// first run) and d.
func bestOf(best, d time.Duration) time.Duration {
	if best == 0 || d < best {
		return d
	}
	return best
}

// copyDir copies the directory tree src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}
