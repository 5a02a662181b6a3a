package planarcert_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
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
// new node changes n in every certificate, so every batch re-proves
// and fully verifies. The re-prove starts from the embedding the live
// certificates encode: lr/op counts the batches whose prove ran the LR
// test instead, and rotation_ms, the mean read of that embedding, is set
// beside lrcheck_ms, the best of three planarity.Check runs on the
// final graph in the same run.
func BenchmarkDynamicLeafAttach(b *testing.B) {
	for _, n := range []int{2000, 30000} {
		net := func() *planarcert.Network {
			return planarcert.FromGraph(gen.StackedTriangulation(n, rand.New(rand.NewSource(42))))
		}
		b.Run(fmt.Sprintf("n=%d/session", n), func(b *testing.B) {
			s, err := planarcert.NewSession(net(), planarcert.SchemePlanarity, planarcert.EngineConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			tracer := planarcert.NewTracer(planarcert.TracerConfig{})
			lr, read := 0, time.Duration(0)
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
// certificates the re-prove rewrote, both per batch.
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
	verified, changed := 0, 0
	b.ResetTimer()
	for _, batch := range batches {
		rep, err := s.Apply(batch)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mode != "reprove" || !rep.Accepted {
			b.Fatalf("batch %v absorbed as %s, accepted %v", batch, rep.Mode, rep.Accepted)
		}
		verified += rep.Verified
		changed += rep.Dirty
	}
	b.StopTimer()
	b.ReportMetric(float64(verified)/float64(b.N), "verified/op")
	b.ReportMetric(float64(changed)/float64(b.N), "changed/op")
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
