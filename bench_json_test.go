package planarcert_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchSnapshotsWellFormed guards the committed benchmark
// snapshots: CI regenerates the dynamic sweep and uploads it as an
// artifact, and this test keeps the committed files parseable and
// structurally complete so the regeneration check has a baseline to
// diff against.
func TestBenchSnapshotsWellFormed(t *testing.T) {
	type entry struct {
		Name          string  `json:"name"`
		NsPerOp       int64   `json:"ns_per_op"`
		BytesPerOp    int64   `json:"bytes_per_op"`
		AllocsPerOp   int64   `json:"allocs_per_op"`
		NodesPerS     float64 `json:"nodes_per_s"`
		AllocsPerNode float64 `json:"allocs_per_node"`
		// The leaf-attach session: LR tests per batch, the read of the
		// kept rotation, and one planarity.Check of the same graph.
		// BenchmarkDynamicReprove records LR tests per batch too.
		LRPerOp    *float64 `json:"lr_per_op"`
		RotationMs float64  `json:"rotation_ms"`
		LRCheckMs  float64  `json:"lrcheck_ms"`
		// Nodes whose verifier re-ran per batch.
		VerifiedPerOp *float64 `json:"verified_per_op"`
		// Tree-edge removals absorbed as an Euler-tour splice, per batch.
		SplicePerOp *float64 `json:"splice_per_op"`
		// Wide-chord batches absorbed as a repair, per batch.
		RepairPerOp *float64 `json:"repair_per_op"`
	}
	type snapshot struct {
		Note       string  `json:"note"`
		Date       string  `json:"date"`
		Sessions   int     `json:"sessions"`
		Benchmarks []entry `json:"benchmarks"`
	}
	for file, want := range map[string][]string{
		"BENCH_baseline.json": {"BenchmarkEngineParallel", "BenchmarkEngineOverhead"},
		"BENCH_dynamic.json": {
			"BenchmarkDynamicUpdate/n=50000/session",
			"BenchmarkDynamicUpdate/n=50000/full",
			"BenchmarkDynamicLeafAttach/n=30000/session",
			"BenchmarkDynamicLeafAttach/n=30000/full",
			"BenchmarkDynamicReprove",
			"BenchmarkDynamicTreeEdgeRemoval/repair=on",
			"BenchmarkDynamicTreeEdgeRemoval/repair=off",
			"BenchmarkDynamicWideChord",
			"BenchmarkDynamicCacheOscillation",
		},
		"BENCH_server.json": {
			"ServerLoad/sessions=64/batch",
			"ServerLoad/sessions=64/update",
			"ServerLoad/mode=",
			"ServerLoad/wire=",
		},
		"BENCH_obs.json": {
			"TraceBench/tracing=off/batch",
			"TraceBench/tracing=on/batch",
		},
		"BENCH_recovery.json": {
			"Recovery/n=50000/replay",
			"Recovery/n=50000/crash_replay",
			"Recovery/n=50000/reprove",
		},
		"BENCH_prover.json": {
			"BenchmarkE7Prover/n=1024",
			"BenchmarkE7Prover/n=16384",
			"BenchmarkE7Prover/n=131072",
			"BenchmarkDecodePlanarCerts/n=30000",
			"BenchmarkDecodePlanarCerts/n=30000/by-id",
		},
		"BENCH_nonplanar.json": {
			"BenchmarkKuratowski/n=200",
			"BenchmarkKuratowski/n=2000",
			"BenchmarkKuratowski/n=10000",
			"BenchmarkKuratowski/n=50000",
		},
	} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var snap snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatalf("%s: not valid JSON: %v", file, err)
		}
		if snap.Note == "" || snap.Date == "" || len(snap.Benchmarks) == 0 {
			t.Fatalf("%s: missing note/date/benchmarks", file)
		}
		for _, prefix := range want {
			found := false
			for _, b := range snap.Benchmarks {
				if strings.HasPrefix(b.Name, prefix) {
					if b.NsPerOp <= 0 {
						t.Fatalf("%s: %s has non-positive ns_per_op", file, b.Name)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: no benchmark entry matching %q", file, prefix)
			}
		}
	}
	// The acceptance bars of the allocation-free verification hot path,
	// checked against the committed engine snapshot: every sweep size
	// stays at or under 10 allocations per node (the seed ran ~96), and
	// throughput is near-flat across the n-sweep — nodes/s at n=16384 is
	// at least 0.8x nodes/s at n=64 in the same mode (certificates are
	// Θ(log n) bits, so decode cost per node may grow only gently).
	raw0, err := os.ReadFile("BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base snapshot
	if err := json.Unmarshal(raw0, &base); err != nil {
		t.Fatal(err)
	}
	perNodeBars := map[string]float64{}
	for _, b := range base.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkEngineParallel/") {
			continue
		}
		if b.AllocsPerNode > 10 {
			t.Errorf("BENCH_baseline.json: %s spends %.2f allocs/node, bar is 10", b.Name, b.AllocsPerNode)
		}
		if b.NodesPerS <= 0 {
			t.Errorf("BENCH_baseline.json: %s missing nodes_per_s", b.Name)
		}
		perNodeBars[b.Name] = b.NodesPerS
	}
	for _, mode := range []string{"seq", "par"} {
		small := perNodeBars["BenchmarkEngineParallel/n=64/"+mode]
		large := perNodeBars["BenchmarkEngineParallel/n=16384/"+mode]
		if small == 0 || large == 0 {
			t.Fatalf("BENCH_baseline.json: missing the n=64/n=16384 %s pair", mode)
		}
		if large < 0.8*small {
			t.Errorf("BENCH_baseline.json: %s throughput decays across the sweep: n=16384 %.0f nodes/s < 0.8 x n=64 %.0f nodes/s",
				mode, large, small)
		}
	}

	// The acceptance bar of the dynamic subsystem, checked against the
	// committed numbers: a single-edge update at n = 50000 is at least
	// 10x faster than a full re-certification.
	raw, err := os.ReadFile("BENCH_dynamic.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var session, full int64
	for _, b := range snap.Benchmarks {
		switch b.Name {
		case "BenchmarkDynamicUpdate/n=50000/session":
			session = b.NsPerOp
		case "BenchmarkDynamicUpdate/n=50000/full":
			full = b.NsPerOp
		}
	}
	if session == 0 || full == 0 {
		t.Fatal("BENCH_dynamic.json: missing the n=50000 pair")
	}
	if full < 10*session {
		t.Fatalf("committed snapshot violates the 10x bar: session %d ns, full %d ns", session, full)
	}
	// The bar of re-proving from the certified embedding: a leaf attach
	// at n=30000 runs no LR test, and reading the kept rotation costs at
	// most a third of one planarity.Check of the same graph, both
	// measured in the same run.
	var leaf *entry
	for i := range snap.Benchmarks {
		if snap.Benchmarks[i].Name == "BenchmarkDynamicLeafAttach/n=30000/session" {
			leaf = &snap.Benchmarks[i]
		}
	}
	switch {
	case leaf == nil || leaf.LRPerOp == nil || leaf.RotationMs <= 0 || leaf.LRCheckMs <= 0:
		t.Fatal("BENCH_dynamic.json: the n=30000 leaf-attach session lacks lr_per_op, rotation_ms or lrcheck_ms")
	case *leaf.LRPerOp != 0:
		t.Fatalf("BENCH_dynamic.json: leaf attaches at n=30000 ran %.2f LR tests per batch, bar is 0", *leaf.LRPerOp)
	case 3*leaf.RotationMs > leaf.LRCheckMs:
		t.Fatalf("BENCH_dynamic.json: reading the rotation took %.2f ms, more than a third of planarity.Check's %.2f ms",
			leaf.RotationMs, leaf.LRCheckMs)
	}
	// The bar of verifying a re-prove on its certificate diff: re-proves
	// of single-edge batches at n=2000 verify at most n/4 nodes each.
	// And the bar of re-adding an edge inside the certified embedding:
	// none of those re-proves runs the LR test.
	const reproveN = 2000
	var dynReprove *entry
	for i := range snap.Benchmarks {
		if snap.Benchmarks[i].Name == "BenchmarkDynamicReprove" {
			dynReprove = &snap.Benchmarks[i]
		}
	}
	switch {
	case dynReprove == nil || dynReprove.VerifiedPerOp == nil || dynReprove.LRPerOp == nil:
		t.Fatal("BENCH_dynamic.json: BenchmarkDynamicReprove lacks verified_per_op or lr_per_op")
	case *dynReprove.VerifiedPerOp > reproveN/4:
		t.Fatalf("BENCH_dynamic.json: re-proves at n=%d verified %.1f nodes per batch, bar is %d",
			reproveN, *dynReprove.VerifiedPerOp, reproveN/4)
	case *dynReprove.LRPerOp != 0:
		t.Fatalf("BENCH_dynamic.json: re-proves at n=%d ran %.2f LR tests per batch, bar is 0",
			reproveN, *dynReprove.LRPerOp)
	}
	// The bar of splicing tree-edge removals: at n=2000, at least 90% of
	// them are absorbed as a splice, and a removal costs at most a third
	// of the re-prove it replaces.
	var splice, spliceOff *entry
	for i := range snap.Benchmarks {
		switch snap.Benchmarks[i].Name {
		case "BenchmarkDynamicTreeEdgeRemoval/repair=on":
			splice = &snap.Benchmarks[i]
		case "BenchmarkDynamicTreeEdgeRemoval/repair=off":
			spliceOff = &snap.Benchmarks[i]
		}
	}
	switch {
	case splice == nil || spliceOff == nil || splice.SplicePerOp == nil || splice.NsPerOp <= 0 || spliceOff.NsPerOp <= 0:
		t.Fatal("BENCH_dynamic.json: the tree-edge removal pair lacks ns_per_op or splice_per_op")
	case *splice.SplicePerOp < 0.9:
		t.Fatalf("BENCH_dynamic.json: %.2f of the tree-edge removals spliced, bar is 0.9", *splice.SplicePerOp)
	case 3*splice.NsPerOp > spliceOff.NsPerOp:
		t.Fatalf("BENCH_dynamic.json: a tree-edge removal took %d ns with repair on, more than a third of the re-prove's %d ns",
			splice.NsPerOp, spliceOff.NsPerOp)
	}
	// The bar of charging a chord its face: at n=2000, at least 90% of
	// the batches that remove or re-add a chord wider than the repair
	// threshold are absorbed as a repair.
	var wide *entry
	for i := range snap.Benchmarks {
		if snap.Benchmarks[i].Name == "BenchmarkDynamicWideChord" {
			wide = &snap.Benchmarks[i]
		}
	}
	switch {
	case wide == nil || wide.RepairPerOp == nil:
		t.Fatal("BENCH_dynamic.json: BenchmarkDynamicWideChord lacks repair_per_op")
	case *wide.RepairPerOp < 0.9:
		t.Fatalf("BENCH_dynamic.json: %.2f of the wide-chord batches repaired, bar is 0.9", *wide.RepairPerOp)
	}

	// The acceptance bar of the server subsystem: the committed load run
	// drove at least 50 concurrent sessions.
	raw, err = os.ReadFile("BENCH_server.json")
	if err != nil {
		t.Fatal(err)
	}
	var srv snapshot
	if err := json.Unmarshal(raw, &srv); err != nil {
		t.Fatal(err)
	}
	if srv.Sessions < 50 {
		t.Fatalf("BENCH_server.json: load run used %d concurrent sessions, want >= 50", srv.Sessions)
	}
	// The acceptance bar of the fair-share admission scheduler: the
	// executed-batch p95 stays within a small multiple of the mean batch
	// cost. Before admission control every batch time-sliced against all
	// 64 sessions and the committed ratio was ~103; fair-share execution
	// keeps the tail at the true service cost of the heaviest mode.
	var batchMean, batchP95 int64
	for _, b := range srv.Benchmarks {
		switch b.Name {
		case "ServerLoad/sessions=64/batch":
			batchMean = b.NsPerOp
		case "ServerLoad/sessions=64/batch_p95":
			batchP95 = b.NsPerOp
		}
	}
	if batchMean == 0 || batchP95 == 0 {
		t.Fatal("BENCH_server.json: missing the sessions=64 batch/batch_p95 pair")
	}
	if ratio := float64(batchP95) / float64(batchMean); ratio > 10.0 {
		t.Fatalf("committed snapshot violates the scheduling bar: batch p95/mean ratio %.1f > 10 (p95 %d ns, mean %d ns)",
			ratio, batchP95, batchMean)
	}
	// The acceptance bars of the binary wire protocol, from the committed
	// queue-mode firehose: fleet update throughput over binary frames must
	// be at least 3x the NDJSON wire and at least 2,500 updates/s outright.
	var wireJSONNs, wireBinNs int64
	for _, b := range srv.Benchmarks {
		switch b.Name {
		case "ServerLoad/wire=json/update":
			wireJSONNs = b.NsPerOp
		case "ServerLoad/wire=binary/update":
			wireBinNs = b.NsPerOp
		}
	}
	if wireJSONNs == 0 || wireBinNs == 0 {
		t.Fatal("BENCH_server.json: missing the wire=json/wire=binary update pair")
	}
	jsonPS := 1e9 / float64(wireJSONNs)
	binPS := 1e9 / float64(wireBinNs)
	if binPS < 3*jsonPS {
		t.Fatalf("committed snapshot violates the wire bar: binary %.0f updates/s < 3 x json %.0f updates/s", binPS, jsonPS)
	}
	if binPS < 2500 {
		t.Fatalf("committed snapshot violates the wire bar: binary %.0f updates/s < 2500/s absolute floor", binPS)
	}

	// The acceptance bars of the durability layer: a clean-shutdown boot
	// restores certificates on the verification sweep alone, so it must
	// beat re-proving the same network from scratch, and so must a crash
	// boot, which adds only the repairs of its WAL tail.
	raw, err = os.ReadFile("BENCH_recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec snapshot
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var replay, crashReplay, reprove int64
	for _, b := range rec.Benchmarks {
		switch b.Name {
		case "Recovery/n=50000/replay":
			replay = b.NsPerOp
		case "Recovery/n=50000/crash_replay":
			crashReplay = b.NsPerOp
		case "Recovery/n=50000/reprove":
			reprove = b.NsPerOp
		}
	}
	if replay == 0 || crashReplay == 0 || reprove == 0 {
		t.Fatal("BENCH_recovery.json: missing an n=50000 replay/crash_replay/reprove entry")
	}
	if replay >= reprove {
		t.Fatalf("committed snapshot violates the recovery bar: clean replay %d ns not faster than cold re-prove %d ns", replay, reprove)
	}
	if crashReplay >= reprove {
		t.Fatalf("committed snapshot violates the recovery bar: crash replay %d ns not faster than cold re-prove %d ns", crashReplay, reprove)
	}

	// The acceptance bars of Kuratowski extraction by halving block
	// deletion on a self-compacting tester narrowed to the region where
	// the LR test fails: a witness in a 200-node maximal planar network
	// plus one edge takes under 0.4 ms and one at n=2000 under 6 ms
	// (halving from every edge took 0.71-0.89 and 5.2-7.3 ms; doubling
	// block deletion on a fixed-size tester 185 ms at n=2000, edge-at-a-
	// time deletion 11.6 s; see the note), and one at n=50000 under 2 s.
	raw, err = os.ReadFile("BENCH_nonplanar.json")
	if err != nil {
		t.Fatal(err)
	}
	var np snapshot
	if err := json.Unmarshal(raw, &np); err != nil {
		t.Fatal(err)
	}
	for name, bar := range map[string]int64{
		"BenchmarkKuratowski/n=200":   4e5,
		"BenchmarkKuratowski/n=2000":  6e6,
		"BenchmarkKuratowski/n=50000": 2e9,
	} {
		var ns int64
		for _, b := range np.Benchmarks {
			if b.Name == name {
				ns = b.NsPerOp
			}
		}
		if ns == 0 || ns >= bar {
			t.Fatalf("BENCH_nonplanar.json: %s at %d ns/op, bar is under %d", name, ns, bar)
		}
	}

	// The acceptance bars of the index-addressed prover: n=16384 under
	// 1.8e8 ns/op (the map- and sort-based prover took ~4e8 on the same
	// machine) and at most 4 allocations per node at every size (it spent
	// ~27.5). The bar of the 72-byte pointer-free edge certificates:
	// n=16384 allocates at most 28 MB per prove (184-byte certificates
	// behind a pointer slab took 31.9 MB). And the bar of the per-sweep
	// decode memo: the sequential verification sweep of an n=16384
	// triangulation costs less than proving it — a sweep that decodes
	// every certificate deg+1 times did not. Both sides come from
	// BENCH_prover.json, which records the sweep measured in the same
	// session as the prover.
	raw, err = os.ReadFile("BENCH_prover.json")
	if err != nil {
		t.Fatal(err)
	}
	var prover snapshot
	if err := json.Unmarshal(raw, &prover); err != nil {
		t.Fatal(err)
	}
	var sweep16k int64 // the sequential n=16384 sweep, ns/op
	for _, b := range prover.Benchmarks {
		if b.Name == "BenchmarkEngineParallel/n=16384/seq" {
			sweep16k = b.NsPerOp
		}
	}
	for _, n := range []int64{1024, 16384, 131072} {
		name := fmt.Sprintf("BenchmarkE7Prover/n=%d", n)
		var e *entry
		for i := range prover.Benchmarks {
			if prover.Benchmarks[i].Name == name {
				e = &prover.Benchmarks[i]
			}
		}
		switch {
		case e == nil:
			t.Fatalf("BENCH_prover.json: missing %s", name)
		case e.AllocsPerOp <= 0 || float64(e.AllocsPerOp)/float64(n) > 4:
			t.Fatalf("BENCH_prover.json: %s spends %d allocs/op, bar is 4 per node (%d)", name, e.AllocsPerOp, 4*n)
		case n == 16384 && e.NsPerOp >= 1.8e8:
			t.Fatalf("BENCH_prover.json: %s at %d ns/op, bar is under 1.8e8", name, e.NsPerOp)
		case n == 16384 && (e.BytesPerOp <= 0 || e.BytesPerOp > 28e6):
			t.Fatalf("BENCH_prover.json: %s allocates %d B/op, bar is at most 28e6", name, e.BytesPerOp)
		case n == 16384 && (sweep16k == 0 || sweep16k >= e.NsPerOp):
			t.Fatalf("BENCH_prover.json: the sequential n=16384 sweep at %d ns/op, bar is under %s at %d ns/op",
				sweep16k, name, e.NsPerOp)
		}
	}

	// The bar of the index-addressed decode: DecodePlanarCerts over a
	// certificate slice at n=30000 takes no longer than the decode that
	// read each certificate from the identifier-keyed map, timed by the
	// same command on the parent commit in the same session.
	decode := map[string]int64{}
	for _, b := range prover.Benchmarks {
		decode[b.Name] = b.NsPerOp
	}
	if slice, byID := decode["BenchmarkDecodePlanarCerts/n=30000"], decode["BenchmarkDecodePlanarCerts/n=30000/by-id"]; slice <= 0 || slice > byID {
		t.Fatalf("BENCH_prover.json: the index-addressed decode at %d ns/op, bar is at most the identifier-map decode at %d ns/op", slice, byID)
	}

	// The acceptance bars of the observability layer: tracing every
	// batch costs at most 5% throughput, and the trace decomposition
	// actually explains the latency tail (one phase accounts for at
	// least half of it — otherwise /debug/traces answers "where did the
	// time go" with a shrug).
	raw, err = os.ReadFile("BENCH_obs.json")
	if err != nil {
		t.Fatal(err)
	}
	var obs struct {
		snapshot
		OverheadPct float64 `json:"overhead_pct"`
		P95         struct {
			DominantPhase    string  `json:"dominant_phase"`
			DominantFraction float64 `json:"dominant_fraction"`
		} `json:"p95_decomposition"`
	}
	if err := json.Unmarshal(raw, &obs); err != nil {
		t.Fatal(err)
	}
	if obs.OverheadPct > 5.0 {
		t.Fatalf("committed snapshot violates the tracing-overhead bar: %.2f%% > 5%%", obs.OverheadPct)
	}
	if obs.P95.DominantPhase == "" || obs.P95.DominantFraction < 0.5 {
		t.Fatalf("committed snapshot violates the attribution bar: dominant phase %q explains only %.0f%% of the tail",
			obs.P95.DominantPhase, 100*obs.P95.DominantFraction)
	}
}
