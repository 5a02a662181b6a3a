package planarcert_test

import (
	"fmt"
	"math/rand"
	"testing"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/interactive"
	"github.com/planarcert/planarcert/internal/lowerbound"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

// Each benchmark regenerates the data behind one experiment of
// EXPERIMENTS.md (run `go test -bench . -benchmem`); custom metrics carry
// the quantities the paper reasons about (certificate bits, attack
// instances) next to the usual ns/op.

// BenchmarkE1CertificateSize measures the full prove+verify pipeline per
// network size and reports the maximum certificate size in bits.
func BenchmarkE1CertificateSize(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := gen.StackedTriangulation(n, rng)
			net := planarcert.FromGraph(g)
			var maxBits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := planarcert.CertifyAndVerify(net, planarcert.SchemePlanarity)
				if err != nil || !report.Accepted {
					b.Fatalf("rejected: %v", err)
				}
				maxBits = report.MaxCertBits
			}
			b.ReportMetric(float64(maxBits), "certbits")
		})
	}
}

// BenchmarkE2PLSvsDMAM compares the two protocols on the same network.
func BenchmarkE2PLSvsDMAM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := gen.StackedTriangulation(512, rng)
	net := planarcert.FromGraph(g)
	b.Run("PLS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report, err := planarcert.CertifyAndVerify(net, planarcert.SchemePlanarity)
			if err != nil || !report.Accepted {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1, "interactions")
	})
	b.Run("dMAM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report, err := planarcert.RunPlanarityDMAM(net, int64(i))
			if err != nil || !report.Accepted {
				b.Fatal(err)
			}
		}
		b.ReportMetric(3, "interactions")
	})
}

// BenchmarkE3BlockAttack measures the pigeonhole splice attack against
// 1-bit certificates (Lemma 5).
func BenchmarkE3BlockAttack(b *testing.B) {
	label := lowerbound.TruncateLabeler(func(inst *lowerbound.BlockInstance) (map[planarcert.NodeID]planarcert.Certificate, error) {
		return pls.SpanningTreeScheme{}.Prove(inst.G)
	}, 1)
	var instances int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		res, err := lowerbound.FindSplice(4, 5, label, 4000, rng)
		if err != nil {
			b.Fatal(err)
		}
		if res != nil {
			instances = res.Instances
		}
	}
	b.ReportMetric(float64(instances), "instances")
}

// BenchmarkE4GluingAttack builds and verifies the glued instance J.
func BenchmarkE4GluingAttack(b *testing.B) {
	for _, q := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			n := 6 * q
			d := n / (2 * q)
			for i := 0; i < b.N; i++ {
				as, bs := lowerbound.SplitIDs(q, n)
				j, err := lowerbound.NewGluedInstance(as, bs, q, d)
				if err != nil {
					b.Fatal(err)
				}
				if err := j.VerifyIllegal(); err != nil {
					b.Fatal(err)
				}
				if err := j.LocalViewsMatchLegal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5Transform measures the Lemma 3 transformation alone.
func BenchmarkE5Transform(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			g := gen.StackedTriangulation(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TransformOf(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6Soundness measures a full adversarial round: random
// certificates on K5 plus verification.
func BenchmarkE6Soundness(b *testing.B) {
	g := gen.Complete(5)
	net := planarcert.FromGraph(g)
	rng := rand.New(rand.NewSource(4))
	rejected := 0
	for i := 0; i < b.N; i++ {
		certs := planarcert.Certificates{}
		for _, id := range net.IDs() {
			nbits := rng.Intn(200)
			data := make([]byte, (nbits+7)/8)
			rng.Read(data)
			certs[id] = planarcert.Certificate{Data: data, Bits: nbits}
		}
		report, err := planarcert.Verify(net, planarcert.SchemePlanarity, certs)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Accepted {
			rejected++
		}
	}
	if rejected != b.N {
		b.Fatalf("an adversarial run was accepted (%d/%d rejected)", rejected, b.N)
	}
}

// BenchmarkE7Prover isolates the prover: planarcert.Certify on a stacked
// triangulation, from the LR test to the defensive copy of the encoded
// certificates. BENCH_prover.json records it with -benchmem.
func BenchmarkE7Prover(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			g := gen.StackedTriangulation(n, rng)
			net := planarcert.FromGraph(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := planarcert.Certify(net, planarcert.SchemePlanarity); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Verifier isolates the 1-round verification (all nodes).
func BenchmarkE7Verifier(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			g := gen.StackedTriangulation(n, rng)
			net := planarcert.FromGraph(g)
			certs, err := planarcert.Certify(net, planarcert.SchemePlanarity)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := planarcert.Verify(net, planarcert.SchemePlanarity, certs)
				if err != nil || !report.Accepted {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "nodes")
		})
	}
}

// BenchmarkE8NonPlanar measures Kuratowski extraction + the non-planarity
// scheme end to end.
func BenchmarkE8NonPlanar(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.PlantSubdivision(100, true, rng)
	if err != nil {
		b.Fatal(err)
	}
	net := planarcert.FromGraph(g)
	for i := 0; i < b.N; i++ {
		report, err := planarcert.CertifyAndVerify(net, planarcert.SchemeNonPlanarity)
		if err != nil || !report.Accepted {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9DegeneracyAblation compares certificate placement policies
// on a wheel (hub degree n-1).
func BenchmarkE9DegeneracyAblation(b *testing.B) {
	g := gen.Wheel(1024)
	net := planarcert.FromGraph(g)
	var maxBits int
	for i := 0; i < b.N; i++ {
		report, err := planarcert.CertifyAndVerify(net, planarcert.SchemePlanarity)
		if err != nil || !report.Accepted {
			b.Fatal(err)
		}
		maxBits = report.MaxCertBits
	}
	b.ReportMetric(float64(maxBits), "certbits")
}

// BenchmarkE10Outerplanar measures the outerplanarity scheme.
func BenchmarkE10Outerplanar(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			g := gen.RandomOuterplanar(n, 0.7, rng)
			net := planarcert.FromGraph(g)
			var maxBits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := planarcert.CertifyAndVerify(net, planarcert.SchemeOuterplanarity)
				if err != nil || !report.Accepted {
					b.Fatal(err)
				}
				maxBits = report.MaxCertBits
			}
			b.ReportMetric(float64(maxBits), "certbits")
		})
	}
}

// BenchmarkPlanarityTest measures the LR planarity test alone (substrate).
func BenchmarkPlanarityTest(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			g := gen.StackedTriangulation(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, _, err := planarity.Check(g)
				if err != nil || !ok {
					b.Fatal("planar graph rejected")
				}
			}
		})
	}
}

// BenchmarkVerifierSingleNode measures one node's local decision
// (the quantity that matters in a real deployment).
func BenchmarkVerifierSingleNode(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g := gen.StackedTriangulation(4096, rng)
	scheme := core.PlanarScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	// Build the view of an arbitrary middle node.
	u := g.N() / 2
	view := dist.View{ID: g.IDOf(u), Degree: g.Degree(u), Cert: certs[g.IDOf(u)]}
	for _, v := range g.Neighbors(u) {
		view.Neighbors = append(view.Neighbors, dist.NeighborCert{ID: g.IDOf(v), Cert: certs[g.IDOf(v)]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scheme.Verify(view); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParallel sweeps the verification engine across network
// sizes and execution modes on identical inputs: the per-node work is
// the planarity verifier of Theorem 1, so the sweep isolates how well
// the sharded worker pool scales the embarrassingly parallel round.
// Engines are constructed once per sub-benchmark, so the steady-state
// iterations also expose the scratch reuse in allocs/op.
func BenchmarkEngineParallel(b *testing.B) {
	scheme := core.PlanarScheme{}
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		rng := rand.New(rand.NewSource(11))
		g := gen.StackedTriangulation(n, rng)
		certs, err := scheme.Prove(g)
		if err != nil {
			b.Fatal(err)
		}
		modes := []struct {
			name string
			opts []dist.Option
		}{
			{"seq", []dist.Option{dist.Sequential()}},
			{"par", []dist.Option{dist.Parallel(0)}},
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode.name), func(b *testing.B) {
				eng := dist.NewEngine(g, mode.opts...)
				eng.RunPLS(certs, scheme.Verify) // warm the scratch pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out := eng.RunPLS(certs, scheme.Verify)
					if !out.AllAccept() {
						b.Fatalf("rejected: %v", out.Reasons)
					}
				}
				b.ReportMetric(float64(n)/float64(b.Elapsed().Nanoseconds())*float64(b.N)*1e9, "nodes/s")
			})
		}
	}
}

// BenchmarkEngineOverhead isolates the simulator itself: a no-op
// verifier leaves only view assembly, scheduling and reduction.
func BenchmarkEngineOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	g := gen.StackedTriangulation(4096, rng)
	certs := map[planarcert.NodeID]planarcert.Certificate{}
	for _, id := range g.IDs() {
		certs[id] = planarcert.Certificate{Data: []byte{0xAB}, Bits: 8}
	}
	verify := func(dist.View) error { return nil }
	for _, mode := range []struct {
		name string
		opts []dist.Option
	}{
		{"seq", []dist.Option{dist.Sequential()}},
		{"par", []dist.Option{dist.Parallel(0)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := dist.NewEngine(g, mode.opts...)
			eng.RunPLS(certs, verify) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := eng.RunPLS(certs, verify); !out.AllAccept() {
					b.Fatal("no-op verifier rejected")
				}
			}
		})
	}
}

// BenchmarkFingerprint measures the dMAM field arithmetic.
func BenchmarkFingerprint(b *testing.B) {
	ranks := make([]int, 1000)
	for i := range ranks {
		ranks[i] = i + 1
	}
	for i := 0; i < b.N; i++ {
		_ = interactive.MultisetProduct(uint64(i)+3, ranks)
	}
}
