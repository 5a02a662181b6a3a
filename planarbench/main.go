// Command planarbench is planarcertd's end-to-end benchmark. It serves
// an in-process internal/server over loopback HTTP with durable sessions
// (fsync always), drives it with one closed-loop client that waits for
// each ack before sending again, checks every answer against oracles
// that do not use the code under test, and prints one JSON result line.
// The process runs on one core (GOMAXPROCS=1), and every timing but
// setup_s is reported in passes of a single-core reference kernel
// (calib.go).
//
// Build and run it from the repository root through run.sh:
//
//	bash planarbench/run.sh --workload repair-stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once with the server's tracer on,
// and reports the per-layer metrics. README.md explains the workloads
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a daemon user sees
// them. Times other than setup_s are in passes of the reference kernel
// (calib.go), so that the machine's drifting speed does not count.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"batch_p50_ref", "ref"},
	{"batch_p90_ref", "ref"},
	{"updates_per_ref", "1/ref"},
	{"audit_p50_ref", "ref"},
	{"recover_ref", "ref"},
	{"daemon_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, named <module>.<metric>.
var perLayer = []metricDef{
	{"phase.admit_ms", "ms"},
	{"phase.queue-wait_ms", "ms"},
	{"phase.budget-wait_ms", "ms"},
	{"phase.prove_ms", "ms"},
	{"phase.verify_ms", "ms"},
	{"phase.persist_ms", "ms"},
	{"phase.other_ms", "ms"},
	{"phase.batch_ms", "ms"},
	{"trace.batch_p50_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"server.exec_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"wire.encode_us_per_batch", "us"},
	{"wire.decode_us_per_batch", "us"},
	{"wire.event_encode_us", "us"},
	{"wire.bytes_per_update", "bytes"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.snapshot_encode_ms", "ms"},
	{"wal.snapshot_decode_ms", "ms"},
	{"dynamic.repair_count", "count"},
	{"dynamic.reprove_count", "count"},
	{"dynamic.cache_count", "count"},
	{"dynamic.flip_count", "count"},
	{"dynamic.repair_ratio", "ratio"},
	{"dynamic.repair_p50_ms", "ms"},
	{"dynamic.reprove_p50_ms", "ms"},
	{"dynamic.flip_p50_ms", "ms"},
	{"dynamic.frontier_nodes_p50", "count"},
	{"dynamic.allocs_per_update", "count"},
	{"planarity.check_ms", "ms"},
	{"planarity.kuratowski_ms", "ms"},
	{"core.transform_ms", "ms"},
	{"core.cert_objects_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"core.prove_allocs_per_node", "count"},
	{"core.nonplanar_proof_ms", "ms"},
	{"core.cert_bits_max", "bits"},
	{"dist.sweep_ms", "ms"},
	{"dist.sweep_nodes_per_s", "1/s"},
	{"dist.sweep_allocs", "count"},
	{"host.ref_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs one invocation and assembles its result.
func benchmark(cfg config) (*result, error) {
	if cfg.ref == nil {
		cfg.ref = newRefKernel()
	}
	digest, err := streamDigest(cfg.spec, cfg.seed, digestPrefix)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "planarbench: request stream sha256 (first %d frames/session) %s\n", digestPrefix, digest)
	t := &tally{}
	var (
		values map[string]float64
		defs   = endToEnd
	)
	if cfg.trace {
		values, err = runTraced(cfg, t)
		defs = perLayer
	} else {
		values, err = runUntraced(cfg, t)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "planarbench: failed op:", e)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: repair-stream, big-graph or nonplanar-churn")
	seed := flag.Int64("seed", 1, "seed of the workload's generators")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's data directories")
	flag.Parse()

	// One core: the daemon sizes its worker pools from GOMAXPROCS, so it
	// runs as on a single-core host, and the single-core reference kernel
	// slows down exactly when it does. On a shared host the second core
	// comes and goes, and a run on two measured how much of it there was.
	runtime.GOMAXPROCS(1)
	sp, err := lookupSpec(*workload, false)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planarbench:", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "planarbench:", err)
		os.Exit(1)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintln(os.Stderr, "planarbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "planarbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d\n",
		sp.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	res, err := benchmark(config{
		spec:    sp,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workdir: dir,
	})
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "planarbench: cleanup:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planarbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planarbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
