package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/planarcert/planarcert/internal/buildinfo"
)

// verifyBuckets are the latency histogram upper bounds, in seconds.
// They span the observed range from a cached 50-node flush (~10µs) to a
// full re-prove of a 100k-node network (~seconds).
var verifyBuckets = []float64{
	1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// waitBuckets are the budget-wait histogram bounds, in seconds. Budget
// acquisition never blocks (waits of ~microseconds), so the range sits
// well below verifyBuckets'.
var waitBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1,
}

// frontierBuckets are the per-batch verified-frontier size bounds, in
// nodes: a repair re-verifies a handful of nodes, a re-prove the
// frontier of its certificate diff or, with a full sweep, all of them.
var frontierBuckets = []float64{
	1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144,
}

// histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative-bucket style. Safe for concurrent use.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last bucket is +Inf
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// observe records one sample, in seconds.
func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// write emits the histogram in Prometheus text exposition format.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	h.writeSeries(w, name, "")
}

// writeSeries emits only the series lines (buckets, _sum, _count), with
// extraLabels (e.g. `scheme="planarity",mode="repair"`) merged into
// every label set — the shared body of plain and labeled histograms.
func (h *histogram) writeSeries(w io.Writer, name, extraLabels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sep := ""
	if extraLabels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, extraLabels, sep, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, extraLabels, sep, cum)
	if extraLabels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, extraLabels, h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, extraLabels, h.count)
	}
}

// histVec is a histogram family keyed by two labels (e.g. scheme/mode
// for the per-scheme batch latency decomposition, class/mode for the
// QoS view). Safe for concurrent use; label sets are created on first
// observation.
type histVec struct {
	labels [2]string // label names, in key order
	mu     sync.Mutex
	bounds []float64
	hists  map[[2]string]*histogram
}

func newHistVec(bounds []float64, label0, label1 string) *histVec {
	return &histVec{
		labels: [2]string{label0, label1},
		bounds: bounds,
		hists:  make(map[[2]string]*histogram),
	}
}

func (v *histVec) observe(val0, val1 string, x float64) {
	key := [2]string{val0, val1}
	v.mu.Lock()
	h := v.hists[key]
	if h == nil {
		h = newHistogram(v.bounds)
		v.hists[key] = h
	}
	v.mu.Unlock()
	h.observe(x)
}

// write emits the family under one HELP/TYPE header, label sets in
// sorted order for a deterministic exposition.
func (v *histVec) write(w io.Writer, name, help string) {
	v.mu.Lock()
	keys := make([][2]string, 0, len(v.hists))
	for k := range v.hists {
		keys = append(keys, k)
	}
	hists := make([]*histogram, len(keys))
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for i, k := range keys {
		hists[i] = v.hists[k]
	}
	v.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, k := range keys {
		hists[i].writeSeries(w, name, fmt.Sprintf("%s=%q,%s=%q", v.labels[0], k[0], v.labels[1], k[1]))
	}
}

// metrics aggregates the daemon's operational counters. All fields are
// safe for concurrent use; the /metrics handler renders them in
// Prometheus text exposition format.
type metrics struct {
	sessionsCreated atomic.Uint64
	sessionsDeleted atomic.Uint64
	updatesTotal    atomic.Uint64
	batchesRejected atomic.Uint64
	watchEvents     atomic.Uint64
	watchDropped    atomic.Uint64
	httpRequests    atomic.Uint64

	// Hardening layer.
	authFailures    atomic.Uint64 // requests rejected for a bad/missing token
	rateLimited     atomic.Uint64 // requests rejected by the client rate limiter
	admitTimeouts   atomic.Uint64 // batches rejected after AdmitTimeout in the admission queue
	sessionsEvicted atomic.Uint64 // sessions LRU-evicted to admit new ones

	// Binary wire protocol.
	wireBatches      atomic.Uint64 // binary update-batch frames decoded
	wireFrames       atomic.Uint64 // binary frames written (acks, hellos, events)
	watchAcks        atomic.Uint64 // watch subscription ACKs applied
	watchNacks       atomic.Uint64 // watch subscription NACKs applied
	watchReplayed    atomic.Uint64 // events replayed to attaching watchers
	unsupportedMedia atomic.Uint64 // POSTs rejected 415 for an unknown Content-Type

	// Durability layer (zero on a non-durable server).
	walAppends       atomic.Uint64
	snapshotsWritten atomic.Uint64
	sessionsRestored atomic.Uint64
	recoveryFailed   atomic.Uint64
	walReplayed      atomic.Uint64
	walCorrupt       atomic.Uint64
	recoverySecsBits atomic.Uint64 // math.Float64bits of the boot replay duration

	modeMu sync.Mutex
	modes  map[string]uint64 // flushed batches by absorption mode

	batchSeconds  *histogram // end-to-end flush latency (repair/prove + verify)
	verifySeconds *histogram // explicit full-verification latency
	budgetWait    *histogram // per-batch budget-slot acquisition wait
	admitWait     *histogram // per-batch admission-queue wait
	frontierNodes *histogram // nodes re-verified per batch (frontier size)
	modeSeconds   *histVec   // batch latency by (scheme, mode)
	classSeconds  *histVec   // batch latency by (class, mode)

	// Build identity, resolved once at construction from the binary's
	// embedded build info; rendered as the planarcertd_build_info gauge.
	buildVersion  string
	buildRevision string
}

func newMetrics() *metrics {
	version, revision := buildinfo.Identity()
	return &metrics{
		modes:         make(map[string]uint64),
		batchSeconds:  newHistogram(verifyBuckets),
		verifySeconds: newHistogram(verifyBuckets),
		budgetWait:    newHistogram(waitBuckets),
		admitWait:     newHistogram(waitBuckets),
		frontierNodes: newHistogram(frontierBuckets),
		modeSeconds:   newHistVec(verifyBuckets, "scheme", "mode"),
		classSeconds:  newHistVec(verifyBuckets, "class", "mode"),
		buildVersion:  version,
		buildRevision: revision,
	}
}

// recoverySeconds returns the recorded boot replay duration (0 until
// recovery completes).
func (m *metrics) recoverySeconds() float64 {
	return math.Float64frombits(m.recoverySecsBits.Load())
}

// batchDone records one successfully flushed batch: total and per-mode
// counters, the end-to-end latency (overall, by scheme/mode and by QoS
// class/mode), and the verified-frontier size.
func (m *metrics) batchDone(mode, scheme, class string, updates, verified int, seconds float64) {
	m.updatesTotal.Add(uint64(updates))
	m.modeMu.Lock()
	m.modes[mode]++
	m.modeMu.Unlock()
	m.batchSeconds.observe(seconds)
	m.modeSeconds.observe(scheme, mode, seconds)
	m.classSeconds.observe(class, mode, seconds)
	m.frontierNodes.observe(float64(verified))
}

// modeCounts returns a copy of the per-mode batch counters.
func (m *metrics) modeCounts() map[string]uint64 {
	m.modeMu.Lock()
	defer m.modeMu.Unlock()
	out := make(map[string]uint64, len(m.modes))
	for k, v := range m.modes {
		out[k] = v
	}
	return out
}

// liveStats are point-in-time values owned by the Server (registry
// sizes, budget usage, tracer drop counters), sampled at render time.
type liveStats struct {
	activeSessions   int
	watchers         int
	budgetSlots      int
	budgetInUse      int
	budgetQueueDepth int
	execSlots        int
	execInUse        int
	execQueueDepth   int
	// budgetGrants and execGrants are cumulative scheduler grants by QoS
	// class name, rendered as the planarcertd_qos_grants_total family.
	budgetGrants map[string]uint64
	execGrants   map[string]uint64

	traceDropSampled uint64
	traceDropEvicted uint64
}

// write renders every metric; live carries the gauges the Server owns.
func (m *metrics) write(w io.Writer, live liveStats) {
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP planarcertd_build_info Build identity of the running binary (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE planarcertd_build_info gauge\n")
	fmt.Fprintf(w, "planarcertd_build_info{version=%q,revision=%q} 1\n", m.buildVersion, m.buildRevision)
	gauge("planarcertd_sessions_active", "Number of live certification sessions.", live.activeSessions)
	gauge("planarcertd_watchers_active", "Number of open watch streams.", live.watchers)
	gauge("planarcertd_worker_budget_slots", "Extra verification worker slots shared by all sessions.", live.budgetSlots)
	gauge("planarcertd_worker_budget_in_use", "Extra verification worker slots currently held.", live.budgetInUse)
	gauge("planarcertd_worker_budget_queue_depth", "Engines waiting for a worker budget slot.", live.budgetQueueDepth)
	gauge("planarcertd_exec_slots", "Concurrent batch-execution slots shared by all sessions.", live.execSlots)
	gauge("planarcertd_exec_in_use", "Batch-execution slots currently held.", live.execInUse)
	gauge("planarcertd_exec_queue_depth", "Batches waiting in the fair-share admission queue.", live.execQueueDepth)
	counter("planarcertd_sessions_created_total", "Sessions created since start.", m.sessionsCreated.Load())
	counter("planarcertd_sessions_deleted_total", "Sessions deleted since start.", m.sessionsDeleted.Load())
	counter("planarcertd_updates_total", "Topology updates absorbed across all sessions.", m.updatesTotal.Load())
	counter("planarcertd_batches_rejected_total", "Update batches rejected by validation.", m.batchesRejected.Load())
	counter("planarcertd_watch_events_total", "Session reports delivered to watchers.", m.watchEvents.Load())
	counter("planarcertd_watch_dropped_total", "Session reports dropped on slow watchers.", m.watchDropped.Load())
	counter("planarcertd_http_requests_total", "HTTP requests served.", m.httpRequests.Load())
	gauge("planarcertd_recovery_seconds", "Boot replay duration (0 until recovery completes).", math.Float64frombits(m.recoverySecsBits.Load()))
	counter("planarcertd_wal_records_replayed", "WAL records replayed during boot recovery.", m.walReplayed.Load())
	counter("planarcertd_wal_corrupt_records", "Corrupt WAL records and snapshots skipped during recovery.", m.walCorrupt.Load())
	counter("planarcertd_sessions_restored_total", "Sessions restored from durable state at boot.", m.sessionsRestored.Load())
	counter("planarcertd_sessions_recovery_failed_total", "Session directories that could not be restored at boot.", m.recoveryFailed.Load())
	counter("planarcertd_wal_appends_total", "Update batches appended to per-session WALs.", m.walAppends.Load())
	counter("planarcertd_snapshots_written_total", "Certificate snapshots written.", m.snapshotsWritten.Load())
	counter("planarcertd_auth_failures_total", "Requests rejected for a missing or invalid bearer token.", m.authFailures.Load())
	counter("planarcertd_rate_limited_total", "Requests rejected by the per-client rate limiter.", m.rateLimited.Load())
	counter("planarcertd_admit_timeouts_total", "Batches rejected after timing out in the admission queue.", m.admitTimeouts.Load())
	counter("planarcertd_sessions_evicted_total", "Sessions evicted by the LRU policy to admit new ones.", m.sessionsEvicted.Load())
	counter("planarcertd_wire_batches_total", "Binary update-batch frames decoded.", m.wireBatches.Load())
	counter("planarcertd_wire_frames_written_total", "Binary frames written (acks, hellos, events).", m.wireFrames.Load())
	counter("planarcertd_watch_acks_total", "Watch subscription ACKs applied.", m.watchAcks.Load())
	counter("planarcertd_watch_nacks_total", "Watch subscription NACKs applied.", m.watchNacks.Load())
	counter("planarcertd_watch_replayed_total", "Events replayed to attaching watch streams (?replay=last or a subscription resume).", m.watchReplayed.Load())
	counter("planarcertd_unsupported_media_total", "POST requests rejected with 415 for an unknown Content-Type.", m.unsupportedMedia.Load())

	fmt.Fprintf(w, "# HELP planarcertd_qos_grants_total Scheduler grants by pool (exec admission vs worker budget) and QoS class.\n")
	fmt.Fprintf(w, "# TYPE planarcertd_qos_grants_total counter\n")
	writeGrants := func(pool string, grants map[string]uint64) {
		classes := make([]string, 0, len(grants))
		for class := range grants {
			classes = append(classes, class)
		}
		sort.Strings(classes)
		for _, class := range classes {
			fmt.Fprintf(w, "planarcertd_qos_grants_total{pool=%q,class=%q} %d\n", pool, class, grants[class])
		}
	}
	writeGrants("budget", live.budgetGrants)
	writeGrants("exec", live.execGrants)

	fmt.Fprintf(w, "# HELP planarcertd_trace_dropped_total Batch traces dropped by the tracer, by reason (sampled out vs evicted from the ring).\n")
	fmt.Fprintf(w, "# TYPE planarcertd_trace_dropped_total counter\n")
	fmt.Fprintf(w, "planarcertd_trace_dropped_total{reason=\"sampled\"} %d\n", live.traceDropSampled)
	fmt.Fprintf(w, "planarcertd_trace_dropped_total{reason=\"evicted\"} %d\n", live.traceDropEvicted)

	fmt.Fprintf(w, "# HELP planarcertd_batches_total Flushed batches by absorption mode (repair vs reprove vs cache ...).\n")
	fmt.Fprintf(w, "# TYPE planarcertd_batches_total counter\n")
	counts := m.modeCounts()
	modes := make([]string, 0, len(counts))
	for mode := range counts {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	for _, mode := range modes {
		fmt.Fprintf(w, "planarcertd_batches_total{mode=%q} %d\n", mode, counts[mode])
	}

	m.batchSeconds.write(w, "planarcertd_batch_seconds", "End-to-end flush latency (repair/re-prove + verification).")
	m.verifySeconds.write(w, "planarcertd_verify_seconds", "Full 1-round verification latency.")
	m.budgetWait.write(w, "planarcertd_budget_wait_seconds", "Per-batch wait for shared verification budget slots.")
	m.admitWait.write(w, "planarcertd_admit_wait_seconds", "Per-batch wait in the fair-share admission queue.")
	m.frontierNodes.write(w, "planarcertd_batch_frontier_nodes", "Nodes re-verified per batch (the dirty frontier; n for a full sweep).")
	m.modeSeconds.write(w, "planarcertd_batch_mode_seconds", "Batch latency by scheme and absorption mode.")
	m.classSeconds.write(w, "planarcertd_batch_class_seconds", "Batch latency by QoS class and absorption mode.")
}
