package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/dynamic"
	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/server"
	"github.com/planarcert/planarcert/internal/wal"
	"github.com/planarcert/planarcert/internal/wire"
)

// layerInputs are the recorded inputs of a traced run that the
// benchmark feeds straight into each layer's public functions.
type layerInputs struct {
	base    *graph.Graph                                 // session 0's initial network
	rec     *recording                                   // its acked batches, in order
	batches [][]planarcert.Update                        // the updates of rec.frames
	final   *mirror                                      // session 0's final network
	certs   map[planarcert.NodeID]server.WireCertificate // served for it
	scheme  planarcert.SchemeName                        // its active scheme
	replay  int                                          // batches the dynamic replay covers
	dir     string                                       // working directory for the WAL measurements
}

// layerReps is how many times each single-call layer measurement is
// repeated; the median is reported.
const layerReps = 3

// medianOf runs f layerReps times and returns the median duration in ms.
func medianOf(f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// mallocs returns the heap allocations f makes.
func mallocs(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

// measureLayers times the benchmark's own calls into each layer on the
// recorded inputs. Layers a workload does not exercise (the Kuratowski
// witness on a planar-only workload) report 0.
func measureLayers(in *layerInputs) (map[string]float64, error) {
	out := map[string]float64{}
	in.batches = make([][]planarcert.Update, len(in.rec.frames))
	for i, f := range in.rec.frames {
		_, ups, err := planarcert.DecodeUpdatesFrame(f)
		if err != nil {
			return nil, fmt.Errorf("recorded frame %d: %w", i, err)
		}
		in.batches[i] = ups
	}
	if err := measureProver(in, out); err != nil {
		return nil, fmt.Errorf("prover layers: %w", err)
	}
	if err := measureNonPlanar(in, out); err != nil {
		return nil, fmt.Errorf("non-planarity layers: %w", err)
	}
	if err := measureWire(in, out); err != nil {
		return nil, fmt.Errorf("wire layer: %w", err)
	}
	if err := measureWAL(in, out); err != nil {
		return nil, fmt.Errorf("wal layer: %w", err)
	}
	if err := measureDynamic(in, out); err != nil {
		return nil, fmt.Errorf("dynamic layer: %w", err)
	}
	return out, nil
}

// measureProver splits the planarity prover into the LR test, the §3.2
// transform, the certificate objects and their encoding, and times a
// full verification sweep of the result.
func measureProver(in *layerInputs, out map[string]float64) error {
	g := in.base
	var (
		err  error
		rot  *embedding.Rotation
		tr   *core.Transform
		objs map[graph.ID]*core.PlanarCert
	)
	if out["planarity.check_ms"], err = medianOf(func() error {
		ok, r, err := planarity.Check(g)
		if err == nil && !ok {
			err = fmt.Errorf("base network reported non-planar")
		}
		rot = r
		return err
	}); err != nil {
		return err
	}
	if out["core.transform_ms"], err = medianOf(func() (err error) {
		tr, err = core.BuildTransform(g, rot, 0)
		return err
	}); err != nil {
		return err
	}
	if out["core.cert_objects_ms"], err = medianOf(func() (err error) {
		objs, _, err = core.BuildPlanarCertObjects(g, tr)
		return err
	}); err != nil {
		return err
	}
	var certs map[graph.ID]bits.Certificate
	if out["core.encode_ms"], err = medianOf(func() (err error) {
		certs, err = core.EncodePlanarCerts(objs)
		return err
	}); err != nil {
		return err
	}
	runtime.GC()
	allocs, err := mallocs(func() error {
		_, err := core.PlanarScheme{}.Prove(g)
		return err
	})
	if err != nil {
		return err
	}
	out["core.prove_allocs_per_node"] = float64(allocs) / float64(g.N())

	eng := dist.NewEngine(g, dist.Sequential())
	var outcome *dist.Outcome
	if out["dist.sweep_ms"], err = medianOf(func() error {
		outcome = eng.RunPLS(certs, core.PlanarScheme{}.Verify)
		if !outcome.AllAccept() {
			return fmt.Errorf("sweep rejected the honest assignment")
		}
		return nil
	}); err != nil {
		return err
	}
	out["dist.sweep_nodes_per_s"] = float64(g.N()) / (out["dist.sweep_ms"] / 1000)
	sweepAllocs, _ := mallocs(func() error {
		eng.RunPLS(certs, core.PlanarScheme{}.Verify)
		return nil
	})
	out["dist.sweep_allocs"] = float64(sweepAllocs)

	maxBits := 0
	for _, c := range in.certs {
		if c.Bits > maxBits {
			maxBits = c.Bits
		}
	}
	out["core.cert_bits_max"] = float64(maxBits)
	return nil
}

// measureNonPlanar times Kuratowski witness extraction and the whole
// non-planarity prover on the first non-planar network session 0 saw.
func measureNonPlanar(in *layerInputs, out map[string]float64) error {
	out["planarity.kuratowski_ms"], out["core.nonplanar_proof_ms"] = 0, 0
	m := mirrorOf(in.base)
	var np *graph.Graph
	for i, ups := range in.batches {
		for _, u := range ups {
			switch u.Op {
			case planarcert.OpAddNode:
				m.addNode()
			case planarcert.OpAddEdge:
				m.addEdge(int64(u.A), int64(u.B))
			case planarcert.OpRemoveEdge:
				m.removeEdge(int64(u.A), int64(u.B))
			}
		}
		if !in.rec.planar[i] {
			np = m.graph()
			break
		}
	}
	if np == nil {
		return nil
	}
	var err error
	if out["planarity.kuratowski_ms"], err = medianOf(func() error {
		_, err := planarity.Kuratowski(np)
		return err
	}); err != nil {
		return err
	}
	out["core.nonplanar_proof_ms"], err = medianOf(func() error {
		_, err := core.BuildNonPlanarProof(np)
		return err
	})
	return err
}

// minLoop is the least time a per-item codec measurement loops for.
const minLoop = 50 * time.Millisecond

// perItemUs loops f over n items until minLoop has passed and returns
// the mean time per item in µs.
func perItemUs(n int, f func(i int) error) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < minLoop {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(calls), nil
}

// measureWire times the binary codec on session 0's recorded frames
// and acks: client-side batch encode, the server's parse-and-decode
// path, and the watch-event encode each broadcast pays.
func measureWire(in *layerInputs, out map[string]float64) error {
	frames, reports := in.rec.frames, in.rec.reports
	var err error
	if out["wire.encode_us_per_batch"], err = perItemUs(len(in.batches), func(i int) error {
		_, err := planarcert.EncodeUpdatesFrame("apply", in.batches[i])
		return err
	}); err != nil {
		return err
	}
	sc := wire.GetScratch()
	defer sc.Release()
	if out["wire.decode_us_per_batch"], err = perItemUs(len(frames), func(i int) error {
		_, payload, _, err := wire.ParseFrame(frames[i])
		if err == nil {
			_, _, err = wire.DecodeUpdateBatch(payload, sc)
		}
		return err
	}); err != nil {
		return err
	}
	if out["wire.event_encode_us"], err = perItemUs(len(reports), func(i int) error {
		_, err := planarcert.EncodeEventFrame(uint64(i+1), reports[i])
		return err
	}); err != nil {
		return err
	}
	bytesTotal, ups := 0, 0
	for i, f := range frames {
		bytesTotal += len(f)
		ups += len(in.batches[i])
	}
	if ups > 0 {
		out["wire.bytes_per_update"] = float64(bytesTotal) / float64(ups)
	}
	return nil
}

func walUpdates(ups []planarcert.Update) []wal.Update {
	out := make([]wal.Update, len(ups))
	for i, u := range ups {
		op := wal.OpAddEdge
		switch u.Op {
		case planarcert.OpRemoveEdge:
			op = wal.OpRemoveEdge
		case planarcert.OpAddNode:
			op = wal.OpAddNode
		}
		out[i] = wal.Update{Op: op, A: int64(u.A), B: int64(u.B)}
	}
	return out
}

// walRecords caps how many recorded batches the WAL measurement logs.
const walRecords = 256

// measureWAL appends session 0's recorded batches to a fresh log,
// timing the write and the fsync of each record separately, and
// encodes and decodes a snapshot of its final state.
func measureWAL(in *layerInputs, out map[string]float64) error {
	dir := filepath.Join(in.dir, "layer-wal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, _, err := wal.OpenLog(filepath.Join(dir, "wal.log"), wal.SyncNever)
	if err != nil {
		return err
	}
	var appendUs, syncUs []float64
	for i, ups := range in.batches {
		if i == walRecords {
			break
		}
		recs := walUpdates(ups)
		t0 := time.Now()
		if err := log.Append(uint64(i+1), recs); err != nil {
			log.Close()
			return err
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return err
		}
		appendUs = append(appendUs, float64(t1.Sub(t0))/float64(time.Microsecond))
		syncUs = append(syncUs, float64(time.Since(t1))/float64(time.Microsecond))
	}
	if err := log.Close(); err != nil {
		return err
	}
	out["wal.append_us"], out["wal.sync_us"] = median(appendUs), median(syncUs)

	snap := &wal.Snapshot{Name: "layer", Scheme: string(planarcert.SchemePlanarity), ActiveScheme: string(in.scheme)}
	for id := 0; id < in.final.n(); id++ {
		snap.Nodes = append(snap.Nodes, int64(id))
	}
	for _, p := range in.final.edges.list {
		snap.Edges = append(snap.Edges, [2]int64(p))
	}
	for id, c := range in.certs {
		snap.Certs = append(snap.Certs, wal.NodeCert{ID: int64(id), Bits: int64(c.Bits), Data: c.Data})
	}
	var raw []byte
	if out["wal.snapshot_encode_ms"], err = medianOf(func() error {
		raw = wal.EncodeSnapshot(snap)
		return nil
	}); err != nil {
		return err
	}
	out["wal.snapshot_decode_ms"], err = medianOf(func() error {
		back, err := wal.DecodeSnapshot(raw)
		if err == nil && (len(back.Certs) != len(snap.Certs) || len(back.Edges) != len(snap.Edges)) {
			err = fmt.Errorf("snapshot round trip lost data")
		}
		return err
	})
	return err
}

// measureDynamic replays the first in.replay of session 0's recorded
// batches through a fresh dynamic.Session and counts heap allocations
// per update.
func measureDynamic(in *layerInputs, out map[string]float64) error {
	s, err := dynamic.NewSession(in.base.Clone(), dynamic.Config{
		Scheme:      core.PlanarScheme{},
		Counterpart: core.NonPlanarScheme{},
		EngineOpts:  []dist.Option{dist.Sequential()},
	})
	if err != nil {
		return err
	}
	runtime.GC()
	batches := in.batches
	if len(batches) > in.replay {
		batches = batches[:in.replay]
	}
	var updates int
	allocs, err := mallocs(func() error {
		for _, ups := range batches {
			batch := make([]dynamic.Update, len(ups))
			for i, u := range ups {
				op := dynamic.AddEdge
				switch u.Op {
				case planarcert.OpRemoveEdge:
					op = dynamic.RemoveEdge
				case planarcert.OpAddNode:
					op = dynamic.AddNode
				}
				batch[i] = dynamic.Update{Op: op, A: graph.ID(u.A), B: graph.ID(u.B)}
			}
			rep, err := s.Apply(batch)
			if err != nil {
				return err
			}
			if !rep.Accepted {
				return fmt.Errorf("replay batch %d not accepted (mode %s)", updates, rep.Mode)
			}
			updates += len(ups)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if updates > 0 {
		out["dynamic.allocs_per_update"] = float64(allocs) / float64(updates)
	}
	return nil
}

// phaseNames are the obs.Phases decomposition of a batch, in order.
var phaseNames = []string{
	obs.PhaseAdmit, obs.PhaseQueueWait, obs.PhaseBudgetWait,
	obs.PhaseProve, obs.PhaseVerify, obs.PhasePersist, obs.PhaseOther,
}
