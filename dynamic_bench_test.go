package planarcert_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dynamic"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/planarity"
)

// findOscillationEdge locates an edge whose removal the session absorbs
// as a localized repair, and leaves the session back in its original
// topology. Tree edges and wide chords fall back to re-proves and are
// skipped.
func findOscillationEdge(b *testing.B, s *planarcert.Session) (planarcert.NodeID, planarcert.NodeID) {
	b.Helper()
	net := s.Network()
	// Nodes stacked late sit deep in the triangulation, so their chords
	// are narrow and repair-friendly; walk identifiers from the end.
	edges := make([][2]planarcert.NodeID, 0, 48)
	ids := net.IDs()
	for i := len(ids) - 1; i >= 0 && len(edges) < 48; i-- {
		a := ids[i]
		for _, nb := range net.Neighbors(a) {
			edges = append(edges, [2]planarcert.NodeID{a, nb})
			break // one candidate per node keeps the probe set diverse
		}
	}
	for _, e := range edges {
		rep, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(e[0], e[1])})
		if err != nil {
			b.Fatal(err)
		}
		back, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(e[0], e[1])})
		if err != nil {
			b.Fatal(err)
		}
		if !back.Accepted {
			b.Fatalf("restoring edge {%d,%d} lost certification", e[0], e[1])
		}
		if rep.Mode == "repair" && (back.Mode == "repair" || back.Mode == "cache") {
			return e[0], e[1]
		}
	}
	b.Fatal("no oscillation edge absorbed as a repair")
	return 0, 0
}

// BenchmarkDynamicUpdate measures the steady-state cost of a
// single-edge update absorbed by the incremental session — localized
// repair plus frontier verification — against the one-shot pipeline
// (full Certify + full Verify) on the same triangulation. The
// acceptance bar of the dynamic subsystem is >= 10x at n = 50000.
func BenchmarkDynamicUpdate(b *testing.B) {
	// The triangulations are built lazily inside the sub-benchmarks so a
	// -bench filter (CI runs only the small sizes) never pays for the
	// 50k-node construction.
	network := func(n int) *planarcert.Network {
		rng := rand.New(rand.NewSource(42))
		return planarcert.FromGraph(gen.StackedTriangulation(n, rng))
	}
	for _, n := range []int{1024, 8192, 50000} {
		b.Run(fmt.Sprintf("n=%d/session", n), func(b *testing.B) {
			net := network(n)
			s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if !s.Certified() {
				b.Fatalf("initial certification failed: %+v", s.Last())
			}
			u, v := findOscillationEdge(b, s)
			verified := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var up planarcert.Update
				if i%2 == 0 {
					up = planarcert.EdgeRemove(u, v)
				} else {
					up = planarcert.EdgeAdd(u, v)
				}
				rep, err := s.Apply([]planarcert.Update{up})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Accepted {
					b.Fatalf("update %d rejected: %+v", i, rep)
				}
				verified += rep.Verified
			}
			b.StopTimer()
			b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
			if b.N%2 == 1 { // restore the original topology
				if _, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(u, v)}); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("n=%d/full", n), func(b *testing.B) {
			net := network(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := planarcert.CertifyAndVerify(net, planarcert.SchemePlanarity)
				if err != nil || !rep.Accepted {
					b.Fatalf("full pipeline failed: %v", err)
				}
			}
			b.ReportMetric(float64(net.N()), "verified/op")
		})
	}
}

// BenchmarkDynamicLeafAttach measures one batch that attaches a new leaf
// to a random node, absorbed by the incremental session, against the
// one-shot pipeline (Certify + full Verify) on the same triangulation. A
// new node changes n in every certificate, so every batch re-encodes and
// fully verifies every node. The session grows its state in place
// (reprove/op counts the batches that re-proved instead); the reprove
// row turns repair off, so every batch re-proves, starting from the
// embedding the live certificates encode: lr/op counts the batches whose
// prove ran the LR test instead, and rotation_ms, the mean read of that
// embedding, is set beside lrcheck_ms, the best of three planarity.Check
// runs on the final graph in the same run.
func BenchmarkDynamicLeafAttach(b *testing.B) {
	for _, n := range []int{2000, 30000} {
		net := func() *planarcert.Network {
			return planarcert.FromGraph(gen.StackedTriangulation(n, rand.New(rand.NewSource(42))))
		}
		for _, row := range []struct {
			name string
			opts []planarcert.SessionOption
		}{
			{"session", nil},
			{"reprove", []planarcert.SessionOption{planarcert.WithRepairThreshold(-1)}},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, row.name), func(b *testing.B) {
				s, err := planarcert.NewSession(net(), planarcert.SchemePlanarity, planarcert.EngineConfig{}, row.opts...)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				tracer := planarcert.NewTracer(planarcert.TracerConfig{})
				reproves, lr, read := 0, 0, time.Duration(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					leaf := planarcert.NodeID(s.N())
					to := planarcert.NodeID(rng.Intn(s.N()))
					root := tracer.Start("bench", obs.SpanBatch)
					s.Trace(root)
					rep, err := s.Apply([]planarcert.Update{planarcert.NodeAdd(leaf), planarcert.EdgeAdd(leaf, to)})
					root.End()
					if err != nil || !rep.Accepted {
						b.Fatalf("leaf attach %d: %+v, %v", i, rep, err)
					}
					if rep.Mode == "reprove" {
						reproves++
					}
					for _, pv := range root.Children() {
						if e, _ := pv.StrAttr("embedding"); pv.Name() == obs.SpanProve && e != "kept" {
							lr++
						}
						for _, c := range pv.Children() {
							if c.Name() == obs.SpanRotation {
								read += c.Duration()
							}
						}
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(reproves)/float64(b.N), "reprove/op")
				if row.opts == nil {
					return
				}
				g := s.Network().Graph()
				check := time.Duration(math.MaxInt64)
				for range 3 {
					start := time.Now()
					if ok, _, err := planarity.Check(g); !ok || err != nil {
						b.Fatalf("planarity.Check: %v, %v", ok, err)
					}
					check = min(check, time.Since(start))
				}
				b.ReportMetric(float64(lr)/float64(b.N), "lr/op")
				b.ReportMetric(float64(read.Microseconds())/1e3/float64(b.N), "rotation_ms")
				b.ReportMetric(float64(check.Microseconds())/1e3, "lrcheck_ms")
			})
		}
		b.Run(fmt.Sprintf("n=%d/full", n), func(b *testing.B) {
			net := net()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := planarcert.CertifyAndVerify(net, planarcert.SchemePlanarity)
				if err != nil || !rep.Accepted {
					b.Fatalf("full pipeline failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkDynamicReprove measures one re-prove of a batch that adds no
// node: repair and the certificate cache are off, so every batch of a
// seeded stream over an n=2000 triangulation re-proves. Each batch
// removes one edge that is not a bridge, or re-adds one of the at most
// four removed. The sweep after the re-prove verifies the frontier of
// its certificate diff against the last accepted assignment:
// verified/op counts the nodes it verified and changed/op the
// certificates the re-prove rewrote, both per batch. A re-add inserts
// its chord into the certified embedding at a face its ends share;
// lr/op counts the batches whose prove ran the LR test instead.
func BenchmarkDynamicReprove(b *testing.B) {
	const n = 2000
	net := planarcert.FromGraph(gen.StackedTriangulation(n, rand.New(rand.NewSource(42))))
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{},
		planarcert.WithRepairThreshold(-1), planarcert.WithCacheSize(-1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	base, mirror := net.Edges(), net.Clone()
	var removed [][2]planarcert.NodeID
	batches := make([][]planarcert.Update, b.N)
	for i := range batches {
		if len(removed) == 4 || (len(removed) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(removed))
			e := removed[j]
			removed = slices.Delete(removed, j, j+1)
			if err := mirror.AddEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
			batches[i] = []planarcert.Update{planarcert.EdgeAdd(e[0], e[1])}
			continue
		}
		for {
			e := base[rng.Intn(len(base))]
			if slices.Contains(removed, e) {
				continue
			}
			mirror.RemoveEdge(e[0], e[1])
			if mirror.Connected() {
				removed = append(removed, e)
				batches[i] = []planarcert.Update{planarcert.EdgeRemove(e[0], e[1])}
				break
			}
			if err := mirror.AddEdge(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	tracer := planarcert.NewTracer(planarcert.TracerConfig{})
	verified, changed, lr := 0, 0, 0
	b.ResetTimer()
	for _, batch := range batches {
		root := tracer.Start("bench", obs.SpanBatch)
		s.Trace(root)
		rep, err := s.Apply(batch)
		root.End()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mode != "reprove" || !rep.Accepted {
			b.Fatalf("batch %v absorbed as %s, accepted %v", batch, rep.Mode, rep.Accepted)
		}
		verified += rep.Verified
		changed += rep.Dirty
		for _, pv := range root.Children() {
			if e, _ := pv.StrAttr("embedding"); pv.Name() == obs.SpanProve && e != "kept" {
				lr++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
	b.ReportMetric(float64(changed)/float64(b.N), "changed/op")
	b.ReportMetric(float64(lr)/float64(b.N), "lr/op")
}

// BenchmarkDynamicTreeEdgeRemoval measures one batch that removes a
// spanning-tree edge of the live assignment from an n=2000 stacked
// triangulation: the edge from a seeded random node to the tree parent
// its certificate names, whenever the removal leaves the network
// connected. The edge is re-added, and the heap collected, outside the
// timer, so every batch starts from the triangulation; the cache is off.
// With repair on the session absorbs the removal as an Euler-tour splice
// of the certified tree, and splice/op counts the removals absorbed as
// repairs. The stream's first removals cut large subtrees and fall
// back, so the rate needs a long stream (200 batches in
// BENCH_dynamic.json and CI). With repair off every removal re-proves.
func BenchmarkDynamicTreeEdgeRemoval(b *testing.B) {
	const n = 2000
	for _, tc := range []struct {
		name string
		opts []planarcert.SessionOption
	}{
		{"repair=on", []planarcert.SessionOption{planarcert.WithCacheSize(-1)}},
		{"repair=off", []planarcert.SessionOption{planarcert.WithCacheSize(-1), planarcert.WithRepairThreshold(-1)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net := planarcert.FromGraph(gen.StackedTriangulation(n, rand.New(rand.NewSource(42))))
			s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{}, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			ids := net.IDs()
			treeEdge := func() [2]planarcert.NodeID {
				certs := s.Certificates()
				for {
					v := ids[rng.Intn(len(ids))]
					c, err := core.DecodePlanarCert(certs[v].Reader())
					if err != nil {
						b.Fatal(err)
					}
					if c.Tree.Dist == 0 {
						continue
					}
					net.RemoveEdge(v, c.Tree.Parent)
					connected := net.Connected()
					if err := net.AddEdge(v, c.Tree.Parent); err != nil {
						b.Fatal(err)
					}
					if connected {
						return [2]planarcert.NodeID{v, c.Tree.Parent}
					}
				}
			}
			splices := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := treeEdge()
				runtime.GC() // the set-up's garbage is not the batch's
				b.StartTimer()
				rep, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(e[0], e[1])})
				if err != nil || !rep.Accepted {
					b.Fatalf("removing {%d,%d}: %+v, %v", e[0], e[1], rep, err)
				}
				if rep.Mode == "repair" {
					splices++
				}
				b.StopTimer()
				if rep, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(e[0], e[1])}); err != nil || !rep.Accepted {
					b.Fatalf("re-adding {%d,%d}: %+v, %v", e[0], e[1], rep, err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(splices)/float64(b.N), "splice/op")
		})
	}
}

// BenchmarkDynamicWideChord measures one batch that removes, or re-adds,
// a cotree edge whose chord spans more than DefaultRepairThreshold ranks,
// on an n=2000 stacked triangulation with repair on and the cache off.
// Even batches remove an edge drawn with a seeded generator from the
// live assignment's wide chords (found outside the timer), and odd ones
// re-add it. The repair budget charges a chord the face under it, not
// its width, so such a batch can be a repair: repair/op counts the
// batches absorbed as repairs, and verified/op the nodes verified per
// batch.
func BenchmarkDynamicWideChord(b *testing.B) {
	const n = 2000
	net := planarcert.FromGraph(gen.StackedTriangulation(n, rand.New(rand.NewSource(42))))
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{},
		planarcert.WithCacheSize(-1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	wideChord := func() [2]planarcert.NodeID {
		var wide [][2]planarcert.NodeID
		for _, c := range s.Certificates() {
			obj, err := core.DecodePlanarCert(c.Reader())
			if err != nil {
				b.Fatal(err)
			}
			for _, ec := range obj.Edges {
				if w := int(ec.Rank[0]) - int(ec.Rank[1]); !ec.IsTree && max(w, -w)+1 > dynamic.DefaultRepairThreshold {
					wide = append(wide, [2]planarcert.NodeID{ec.U, ec.V})
				}
			}
		}
		if len(wide) == 0 {
			b.Fatal("no chord spans more than the repair threshold")
		}
		slices.SortFunc(wide, func(x, y [2]planarcert.NodeID) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
		return wide[rng.Intn(len(wide))]
	}
	var e [2]planarcert.NodeID
	repairs, verified := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		up := planarcert.EdgeAdd(e[0], e[1])
		if i%2 == 0 {
			b.StopTimer()
			e = wideChord()
			runtime.GC() // the set-up's garbage is not the batch's
			b.StartTimer()
			up = planarcert.EdgeRemove(e[0], e[1])
		}
		rep, err := s.Apply([]planarcert.Update{up})
		if err != nil || !rep.Accepted {
			b.Fatalf("batch %d {%d,%d}: %+v, %v", i, e[0], e[1], rep, err)
		}
		if rep.Mode == "repair" {
			repairs++
		}
		verified += rep.Verified
	}
	b.StopTimer()
	b.ReportMetric(float64(repairs)/float64(b.N), "repair/op")
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
}

// BenchmarkDynamicCacheOscillation pins the cache path: repair is
// disabled, so every update re-proves until the oscillation settles
// onto two generation-stamped cache entries.
func BenchmarkDynamicCacheOscillation(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	net := planarcert.FromGraph(gen.StackedTriangulation(4096, rng))
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{},
		planarcert.WithRepairThreshold(-1))
	if err != nil {
		b.Fatal(err)
	}
	ids := net.IDs()
	var u, v planarcert.NodeID
	found := false
	for _, a := range ids {
		for _, nb := range net.Neighbors(a) {
			// Warm both cache entries with one full oscillation.
			if _, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(a, nb)}); err != nil {
				b.Fatal(err)
			}
			rep, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(a, nb)})
			if err != nil {
				b.Fatal(err)
			}
			if s.Certified() && rep.Accepted {
				u, v, found = a, nb, true
			}
			break
		}
		if found {
			break
		}
	}
	if !found {
		b.Fatal("no oscillation edge found")
	}
	if _, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(u, v)}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(u, v)}); err != nil {
		b.Fatal(err)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var up planarcert.Update
		if i%2 == 0 {
			up = planarcert.EdgeRemove(u, v)
		} else {
			up = planarcert.EdgeAdd(u, v)
		}
		rep, err := s.Apply([]planarcert.Update{up})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mode == "cache" {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N)*100, "cachehit%")
	if b.N%2 == 1 {
		if _, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(u, v)}); err != nil {
			b.Fatal(err)
		}
	}
}
