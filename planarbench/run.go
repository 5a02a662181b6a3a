package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/server"
)

// config is one benchmark invocation.
type config struct {
	spec    spec
	seed    int64
	seconds time.Duration
	trace   bool
	// workdir holds the run's data directories; it is removed at the end.
	workdir string
	// ref is the reference kernel every timing but setup_s is divided by.
	ref *refKernel
}

const (
	// digestPrefix is how many frames per session the logged request
	// stream digest covers.
	digestPrefix = 32
	// failedLatency stands in for the latency of a failed request, so a
	// failure counts as missing every latency percentile.
	failedLatency = 120 * time.Second
)

// tally counts ops attempted and failed. A failed op is a transport
// error, a non-2xx reply, or an answer an oracle rejects.
type tally struct {
	attempted int64
	failed    int64
	errs      []string
}

func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

// session is the client-side state of one daemon session.
type session struct {
	name    string
	st      stream
	gen     uint64 // generation of the last ack
	verdict bool   // Accepted of the last ack
	broken  bool   // a request failed: the mirror may no longer match
	// sinceAudit counts the batches acked since the session's last audit.
	sinceAudit int
	// rec, when set, keeps every acked batch (traced runs, session 0
	// only): the layer measurements replay it.
	rec *recording
}

// recording is one session's acked batches in order: the request
// frames, the oracle verdict after each, and the acked reports.
type recording struct {
	frames  [][]byte
	planar  []bool
	reports []*planarcert.SessionReport
}

func schemeFor(planar bool) planarcert.SchemeName {
	if planar {
		return planarcert.SchemePlanarity
	}
	return planarcert.SchemeNonPlanarity
}

// checkAck compares one ack against the oracle: the next generation,
// every update absorbed, and an accepted assignment of the scheme the
// network's planarity calls for.
func checkAck(s *session, b batch, ack *planarcert.WireBatchAck) error {
	rep := ack.Report
	switch {
	case rep == nil:
		return fmt.Errorf("%s: ack without report", s.name)
	case rep.Generation != s.gen+1:
		return fmt.Errorf("%s: ack generation %d, want %d", s.name, rep.Generation, s.gen+1)
	case rep.Updates != len(b.updates):
		return fmt.Errorf("%s: ack absorbed %d updates, want %d", s.name, rep.Updates, len(b.updates))
	case !rep.Accepted || rep.ActiveScheme != schemeFor(b.wantPlanar):
		return fmt.Errorf("%s gen %d: verdict accepted=%v under %s, oracle wants an accepted %s proof",
			s.name, rep.Generation, rep.Accepted, rep.ActiveScheme, schemeFor(b.wantPlanar))
	}
	return nil
}

// nextBatch generates the session's next batch and checks the
// generator's own oracle invariant: a network the oracle calls
// non-planar exceeds Euler's bound of 3n−6 edges.
func (s *session) nextBatch() (batch, []byte, error) {
	b := s.st.next()
	m := s.st.mirror()
	if !b.wantPlanar && m.size() <= 3*m.n()-6 {
		return b, nil, fmt.Errorf("%s: generator produced an undecided state (%d edges on %d nodes)", s.name, m.size(), m.n())
	}
	frame, err := planarcert.EncodeUpdatesFrame("apply", b.updates)
	if err != nil {
		return b, nil, err
	}
	return b, frame, nil
}

// send generates the session's next batch, posts it and checks the ack,
// returning the round trip. A failed batch marks the session broken.
func (s *session) send(d *daemon) (b batch, ack *planarcert.WireBatchAck, lat time.Duration, err error) {
	var frame []byte
	if b, frame, err = s.nextBatch(); err == nil {
		t0 := time.Now()
		ack, err = d.postBatch(s.name, frame)
		lat = time.Since(t0)
		if err == nil {
			err = checkAck(s, b, ack)
		}
	}
	if err != nil {
		s.broken = true
		return b, nil, lat, err
	}
	s.gen, s.verdict = ack.Report.Generation, ack.Report.Accepted
	if s.rec != nil {
		s.rec.frames = append(s.rec.frames, frame)
		s.rec.planar = append(s.rec.planar, b.wantPlanar)
		s.rec.reports = append(s.rec.reports, ack.Report)
	}
	return b, ack, lat, nil
}

// segment is how long the client runs between two reference bursts.
const segment = time.Second

// phaseStats is what one timed phase measured. The *Ms figures are raw
// times; batchRef and auditRef are the same times in reference passes
// (see refKernel).
type phaseStats struct {
	batchMs  []float64 // round trip per batch (failed = failedLatency)
	batchRef []float64
	auditMs  []float64
	auditRef []float64
	execMs   []float64 // ack elapsed_seconds
	overMs   []float64 // round trip minus exec
	modeMs   map[string][]float64
	frontier []float64 // nodes re-verified by repair-mode batches
	modes    map[string]int
	ups      int           // updates acked
	wall     time.Duration // time the client ran, bursts excluded
	wallRef  float64       // the same in reference passes
	refMs    []float64     // every reference burst of the phase
}

func newPhaseStats() *phaseStats {
	return &phaseStats{modeMs: map[string][]float64{}, modes: map[string]int{}}
}

// merge adds one client's share of a segment whose reference pass took
// ref ms.
func (p *phaseStats) merge(o *phaseStats, ref float64) {
	p.batchMs = append(p.batchMs, o.batchMs...)
	p.auditMs = append(p.auditMs, o.auditMs...)
	for _, x := range o.batchMs {
		p.batchRef = append(p.batchRef, x/ref)
	}
	for _, x := range o.auditMs {
		p.auditRef = append(p.auditRef, x/ref)
	}
	p.execMs = append(p.execMs, o.execMs...)
	p.overMs = append(p.overMs, o.overMs...)
	p.frontier = append(p.frontier, o.frontier...)
	for k, v := range o.modeMs {
		p.modeMs[k] = append(p.modeMs[k], v...)
	}
	for k, v := range o.modes {
		p.modes[k] += v
	}
	p.ups += o.ups
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client is the closed-loop client: the sessions it writes, round robin.
type client struct {
	owned []*session
	next  int
}

// drive runs the timed phase in segments of about a second. Within a
// segment the client sends its next request only after the previous one
// was answered, until the segment's deadline. Between segments, with no
// request in flight, a reference burst times the machine, and each
// segment's times are divided by the mean of the bursts before and after
// it.
func drive(w spec, d *daemon, sessions []*session, seconds time.Duration, ref *refKernel, t *tally) *phaseStats {
	cl := &client{owned: sessions}
	all := newPhaseStats()
	before := ref.burst()
	all.refMs = append(all.refMs, before)
	for all.wall < seconds {
		start := time.Now()
		seg := newPhaseStats()
		cl.run(w, d, start.Add(min(segment, seconds-all.wall)), seg, t)
		wall := time.Since(start)
		after := ref.burst()
		all.refMs = append(all.refMs, after)
		r := (before + after) / 2
		all.merge(seg, r)
		all.wall += wall
		all.wallRef += ms(wall) / r
		before = after
		if len(seg.batchMs) == 0 { // every session is broken
			break
		}
	}
	return all
}

// run writes the client's sessions round robin until the deadline, each
// batch after the previous ack. A session that has acked auditEvery
// batches since its last audit, and whose network is in the state the
// workload audits, is audited auditBurst times right after its ack; the
// audits finish even past the deadline.
func (c *client) run(w spec, d *daemon, deadline time.Time, ps *phaseStats, t *tally) {
	for time.Now().Before(deadline) {
		var s *session
		for i := 0; i < len(c.owned) && s == nil; i++ {
			if cand := c.owned[(c.next+i)%len(c.owned)]; !cand.broken {
				s = cand
				c.next = (c.next + i + 1) % len(c.owned)
			}
		}
		if s == nil {
			return
		}
		b, ack, lat, err := s.send(d)
		ups := len(b.updates)
		if !t.op(err) {
			lat, ups = failedLatency, 0
		}
		ps.batchMs = append(ps.batchMs, ms(lat))
		ps.ups += ups
		if err != nil {
			continue
		}
		ps.execMs = append(ps.execMs, ms(ack.Elapsed))
		ps.overMs = append(ps.overMs, ms(lat-ack.Elapsed))
		ps.modes[ack.Report.Mode]++
		ps.modeMs[ack.Report.Mode] = append(ps.modeMs[ack.Report.Mode], ms(ack.Elapsed))
		if ack.Report.Mode == "repair" {
			ps.frontier = append(ps.frontier, float64(ack.Report.Verified))
		}
		if s.sinceAudit++; s.sinceAudit < w.auditEvery || !s.st.auditable() {
			continue
		}
		s.sinceAudit = 0
		for a := 0; a < w.auditBurst; a++ {
			t0 := time.Now()
			rep, err := d.audit(s.name)
			lat := time.Since(t0)
			if err == nil && rep.Accepted != s.verdict {
				err = fmt.Errorf("%s: audit verdict %v, last ack said %v", s.name, rep.Accepted, s.verdict)
			}
			if !t.op(err) {
				lat = failedLatency
			}
			ps.auditMs = append(ps.auditMs, ms(lat))
		}
	}
}

// mirrorFingerprint is the fingerprint the daemon must report for the
// mirror's network.
func mirrorFingerprint(m *mirror) (string, error) {
	net, err := m.network()
	if err != nil {
		return "", err
	}
	hi, lo := net.Fingerprint()
	return fmt.Sprintf("%016x%016x", hi, lo), nil
}

// checkState compares the daemon's view of a session with the mirror:
// the exported topology edge for edge, its fingerprint, and the
// generation of the last ack.
func checkState(d *daemon, s *session, fp string) error {
	g, err := d.graph(s.name)
	if err != nil {
		return err
	}
	m := s.st.mirror()
	want := m.sortedEdges()
	if len(g.Nodes) != m.n() || len(g.Edges) != len(want) {
		return fmt.Errorf("%s: daemon has %d nodes, %d edges; mirror %d, %d", s.name, len(g.Nodes), len(g.Edges), m.n(), len(want))
	}
	got := append([][2]planarcert.NodeID(nil), g.Edges...)
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: edge %d is %v on the daemon, %v in the mirror", s.name, i, got[i], want[i])
		}
	}
	if g.Fingerprint != fp {
		return fmt.Errorf("%s: fingerprint %s, mirror %s", s.name, g.Fingerprint, fp)
	}
	st, err := d.status(s.name)
	if err != nil {
		return err
	}
	if st.Generation != s.gen || !st.Certified {
		return fmt.Errorf("%s: generation %d certified=%v, want generation %d certified", s.name, st.Generation, st.Certified, s.gen)
	}
	return nil
}

// checkSessions runs the state oracle on every intact session, plus the
// planarity oracle: planarity.IsPlanar must agree with the verdict
// Euler's bound or the subgraph-of-a-triangulation argument gives.
func checkSessions(d *daemon, sessions []*session, t *tally) {
	for _, s := range sessions {
		if s.broken {
			continue
		}
		fp, err := mirrorFingerprint(s.st.mirror())
		if err == nil {
			err = checkState(d, s, fp)
		}
		t.op(err)
		want := s.st.planar()
		if got := planarity.IsPlanar(s.st.mirror().graph()); got != want {
			err = fmt.Errorf("%s: planarity.IsPlanar=%v, oracle says %v", s.name, got, want)
		} else {
			err = nil
		}
		t.op(err)
	}
}

// checkTamper fetches one session's certificates, requires POST
// /v1/verify to accept them as served and to reject them once a single
// bit is flipped.
func checkTamper(d *daemon, s *session, t *tally) {
	if s.broken {
		return
	}
	certs, err := d.certificates(s.name)
	if !t.op(err) {
		return
	}
	scheme := schemeFor(s.st.planar())
	rep, err := d.verifyOneShot(scheme, s.st.mirror(), certs)
	if err == nil && !rep.Accepted {
		err = fmt.Errorf("%s: /v1/verify rejected the served certificates", s.name)
	}
	if !t.op(err) {
		return
	}
	victim := planarcert.NodeID(-1)
	for id := range certs {
		if victim < 0 || id < victim {
			victim = id
		}
	}
	c := certs[victim]
	flipped := append([]byte(nil), c.Data...)
	flipped[0] ^= 0x80
	c.Data = flipped
	certs[victim] = c
	rep, err = d.verifyOneShot(scheme, s.st.mirror(), certs)
	if err == nil && rep.Accepted {
		err = fmt.Errorf("%s: /v1/verify accepted a certificate with a flipped bit at node %d", s.name, victim)
	}
	t.op(err)
}

// bootServer creates a server on dir and recovers it.
func bootServer(dir string, traced bool) (*server.Server, error) {
	cfg := server.Config{DataDir: dir, TraceRing: -1}
	if traced {
		cfg.TraceRing = 1 << 16
		cfg.TraceSampleEvery = 1
	}
	srv := server.New(cfg)
	if err := srv.Recover(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	return srv, nil
}

// setup generates the workload's networks, boots a durable server on an
// empty data directory and creates every session, which proves each
// initial network. seed drives the sessions' update streams.
func setup(w spec, seed int64, dir string, traced bool, t *tally) (*daemon, []*session, error) {
	streams := newStreams(w, seed)
	srv, err := bootServer(dir, traced)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(srv)
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	sessions := make([]*session, len(streams))
	for i, st := range streams {
		sessions[i] = &session{name: fmt.Sprintf("%s-%d", w.name, i), st: st}
		if err := d.createSession(sessions[i].name, st.mirror()); !t.op(err) {
			d.stop()
			return nil, nil, err
		}
	}
	return d, sessions, nil
}

func copyTree(src, dst string) error {
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

// crashShape leaves every session as a crash would: a fresh snapshot
// (forced by a flush) plus a one-batch WAL tail of the stream's tail
// kind, then copies the data directory while the server is still live.
func crashShape(d *daemon, sessions []*session, dataDir, crashDir string, t *tally) error {
	for _, s := range sessions {
		for !s.broken && !s.st.tailReady() {
			_, _, _, err := s.send(d)
			t.op(err)
		}
		if s.broken {
			continue
		}
		if !t.op(d.flush(s.name)) {
			s.broken = true
			continue
		}
		_, _, _, err := s.send(d)
		t.op(err)
	}
	return copyTree(dataDir, crashDir)
}

// timeRecoveries boots fresh servers on copies of the crash-shaped
// directory and returns the boot times in ms and in reference passes,
// each divided by the mean of the bursts right before and after it.
// Each boot must restore every session with its generation and
// topology.
func timeRecoveries(boots int, sessions []*session, crashDir, workdir string, ref *refKernel, t *tally) (raw, inRef []float64, err error) {
	fps := make([]string, len(sessions))
	for i, s := range sessions {
		if fps[i], err = mirrorFingerprint(s.st.mirror()); err != nil {
			return nil, nil, err
		}
	}
	before := ref.burst()
	for r := 0; r < boots; r++ {
		dir := filepath.Join(workdir, fmt.Sprintf("boot-%d", r))
		if err := copyTree(crashDir, dir); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		srv, err := bootServer(dir, false)
		el := time.Since(t0)
		if !t.op(err) {
			return nil, nil, err
		}
		d, err := startDaemon(srv)
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		for i, s := range sessions {
			if !s.broken {
				t.op(checkState(d, s, fps[i]))
			}
		}
		d.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		after := ref.burst()
		raw = append(raw, ms(el))
		inRef = append(inRef, ms(el)/((before+after)/2))
		before = after
	}
	return raw, inRef, nil
}

// logPhase reports a timed phase's absorption mode mix on stderr, so
// the run-to-run spread of the mix stays visible.
func logPhase(label string, cfg config, ps *phaseStats) {
	modes := make([]string, 0, len(ps.modes))
	for m, n := range ps.modes {
		modes = append(modes, fmt.Sprintf("%s:%d", m, n))
	}
	sort.Strings(modes)
	deciles := make([]string, 0, 9)
	for q := 1; q <= 9; q++ {
		deciles = append(deciles, fmt.Sprintf("%.3f", quantile(ps.batchMs, float64(q)/10)))
	}
	fmt.Fprintf(os.Stderr, "planarbench: %s workload=%s seed=%d batches=%d audits=%d wall=%.3fs modes=%s batch_ms_deciles=%s audit_p50_ms=%.3f ref_ms=%.3f (%d bursts, %.3f-%.3f)\n",
		label, cfg.spec.name, cfg.seed, len(ps.batchMs), len(ps.auditMs), ps.wall.Seconds(), strings.Join(modes, ","), strings.Join(deciles, ","),
		median(ps.auditMs), median(ps.refMs), len(ps.refMs), slices.Min(ps.refMs), slices.Max(ps.refMs))
}

// liveHeapMB collects garbage and returns the live heap in MB. The
// second collection frees what sync.Pool caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// stopForHeap stops the daemon and returns the live heap it held: the
// live heap before minus after it closed its sessions.
func stopForHeap(d *daemon) float64 {
	heap := liveHeapMB()
	d.stop()
	return heap - liveHeapMB()
}

// quantile is the linear-interpolation quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEnd computes the timed phase's end-to-end figures, in reference
// passes.
func (p *phaseStats) endToEnd() map[string]float64 {
	return map[string]float64{
		"batch_p50_ref":   quantile(p.batchRef, 0.5),
		"batch_p90_ref":   quantile(p.batchRef, 0.9),
		"updates_per_ref": float64(p.ups) / p.wallRef,
		"audit_p50_ref":   median(p.auditRef),
	}
}
