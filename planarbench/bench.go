package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runUntraced measures the end-to-end metrics: the workload's set-ups,
// one timed phase, the state and tamper oracles, and its crash-shaped
// boots. The first set-up builds the crash state on the fixed
// recoverySeed streams, so what recover_ref replays does not depend on
// the run's seed, and daemon_heap_mb is taken from it; the last one
// serves the timed phase.
func runUntraced(cfg config, t *tally) (map[string]float64, error) {
	if cfg.spec.setups < 2 {
		return nil, fmt.Errorf("%s: %d set-ups, need at least 2", cfg.spec.name, cfg.spec.setups)
	}
	var (
		setups   []float64
		d        *daemon
		sessions []*session
		crashed  []*session // the sessions of the crash state
		heap     float64
		err      error
	)
	crashDir := filepath.Join(cfg.workdir, "crash")
	for i := 0; i < cfg.spec.setups; i++ {
		dataDir := filepath.Join(cfg.workdir, fmt.Sprintf("setup-%d", i))
		seed := cfg.seed
		if i == 0 {
			seed = recoverySeed
		}
		runtime.GC()
		t0 := time.Now()
		if d, sessions, err = setup(cfg.spec, seed, dataDir, false, t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == cfg.spec.setups-1 {
			break
		}
		if i == 0 {
			crashed = sessions
			err = crashShape(d, sessions, dataDir, crashDir, t)
			heap = stopForHeap(d)
		} else {
			d.stop()
		}
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}

	ps := drive(cfg.spec, d, sessions, cfg.seconds, cfg.ref, t)
	logPhase("timed", cfg, ps)
	checkSessions(d, sessions, t)
	checkTamper(d, sessions[0], t)
	d.stop()
	bootMs, boots, err := timeRecoveries(cfg.spec.boots, crashed, crashDir, cfg.workdir, cfg.ref, t)
	if err != nil {
		return nil, err
	}
	if len(ps.batchMs) == 0 || len(ps.auditMs) == 0 {
		return nil, fmt.Errorf("timed phase too short: %d batches, %d audits", len(ps.batchMs), len(ps.auditMs))
	}
	fmt.Fprintf(os.Stderr, "planarbench: setup_s=%v boot_ms=%v boot_ref=%v daemon_heap_mb=%.3f\n", setups, bootMs, boots, heap)
	fmt.Fprintf(os.Stderr, "planarbench: raw batch_p50_ms=%.4f batch_p90_ms=%.4f updates_per_s=%.4f audit_p50_ms=%.4f recover_ms=%.4f ref_ms=%.4f\n",
		median(ps.batchMs), quantile(ps.batchMs, 0.9), float64(ps.ups)/ps.wall.Seconds(), median(ps.auditMs), median(bootMs), median(ps.refMs))
	out := ps.endToEnd()
	out["setup_s"] = median(setups)
	out["recover_ref"] = median(boots)
	out["daemon_heap_mb"] = heap
	return out, nil
}

// runTraced measures the per-layer metrics: an untraced timed phase
// that records its inputs and acks, a second timed phase on a fresh
// server with its tracer on, whose /debug/traces gives the phase
// decomposition, and the benchmark's own calls into each layer on the
// recorded inputs.
func runTraced(cfg config, t *tally) (map[string]float64, error) {
	dir := filepath.Join(cfg.workdir, "untraced")
	d, sessions, err := setup(cfg.spec, cfg.seed, dir, false, t)
	if err != nil {
		return nil, err
	}
	s0 := sessions[0]
	s0.rec = &recording{}
	in := &layerInputs{base: s0.st.mirror().graph(), replay: cfg.spec.replay, dir: cfg.workdir}
	ps := drive(cfg.spec, d, sessions, cfg.seconds, cfg.ref, t)
	logPhase("untraced", cfg, ps)
	checkSessions(d, sessions, t)
	in.certs, err = d.certificates(s0.name)
	d.stop()
	if !t.op(err) {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	in.rec, in.final, in.scheme = s0.rec, s0.st.mirror(), schemeFor(s0.st.planar())

	dir = filepath.Join(cfg.workdir, "traced")
	d, sessions, err = setup(cfg.spec, cfg.seed, dir, true, t)
	if err != nil {
		return nil, err
	}
	tps := drive(cfg.spec, d, sessions, cfg.seconds, cfg.ref, t)
	logPhase("traced", cfg, tps)
	page, err := d.traces()
	checkSessions(d, sessions, t)
	d.stop()
	if !t.op(err) {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	means, batchMs, err := phaseMeans(page, tps.execMs, tps.overMs)
	if !t.op(err) {
		return nil, err
	}

	out, err := measureLayers(in)
	if !t.op(err) {
		return nil, err
	}
	for name, v := range means {
		out["phase."+name+"_ms"] = v
	}
	out["phase.batch_ms"] = batchMs
	// The overhead is taken in reference passes, so that a drift of the
	// machine's speed between the two phases does not count as tracing
	// cost, and given in ms at the traced phase's speed.
	out["trace.batch_p50_ms"] = median(tps.batchMs)
	out["trace.overhead_p50_ms"] = (median(tps.batchRef) - median(ps.batchRef)) * median(tps.refMs)
	out["host.ref_ms"] = median(ps.refMs)
	out["server.exec_p50_ms"] = median(ps.execMs)
	out["server.overhead_p50_ms"] = median(ps.overMs)

	effective := 0
	for mode, n := range ps.modes {
		if mode != "noop" {
			effective += n
		}
	}
	for _, mode := range []string{"repair", "reprove", "cache", "flip"} {
		out["dynamic."+mode+"_count"] = float64(ps.modes[mode])
	}
	for _, mode := range []string{"repair", "reprove", "flip"} {
		out["dynamic."+mode+"_p50_ms"] = medianOrZero(ps.modeMs[mode])
	}
	out["dynamic.repair_ratio"] = 0
	if effective > 0 {
		out["dynamic.repair_ratio"] = float64(ps.modes["repair"]) / float64(effective)
	}
	out["dynamic.frontier_nodes_p50"] = medianOrZero(ps.frontier)
	return out, nil
}

// medianOrZero is the median of xs, or 0 without samples (a mode the
// workload never takes).
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
