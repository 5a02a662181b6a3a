package core_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

func mustAccept(t *testing.T, g *graph.Graph, label string) int {
	t.Helper()
	out, err := pls.Run(core.PlanarScheme{}, g)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !out.AllAccept() {
		for id, reason := range out.Reasons {
			t.Errorf("%s: node %d rejects: %s", label, id, reason)
		}
		t.Fatalf("%s: planarity certificates rejected", label)
	}
	return out.MaxCertBit
}

func TestPlanarCompletenessFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"K1", graph.NewWithNodes(1)},
		{"K2", gen.Path(2)},
		{"path-9", gen.Path(9)},
		{"triangle", gen.Cycle(3)},
		{"cycle-10", gen.Cycle(10)},
		{"K4", gen.Complete(4)},
		{"star-8", gen.Star(8)},
		{"grid-4x5", gen.Grid(4, 5)},
		{"wheel-9", gen.Wheel(9)},
		{"caterpillar", gen.Caterpillar(6, 9)},
		{"K2,7", gen.CompleteBipartite(2, 7)},
		{"scrambled-grid", gen.ScrambleIDs(gen.Grid(5, 4), rng)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mustAccept(t, tc.g, tc.name)
		})
	}
}

func TestPlanarCompletenessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(50)
		maxM := 3*n - 6
		m := n - 1
		if maxM > m {
			m += rng.Intn(maxM - m + 1)
		}
		g, err := gen.RandomPlanar(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		mustAccept(t, gen.ScrambleIDs(g, rng), "random planar")
	}
}

func TestPlanarCompletenessMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 8, 25, 80, 300} {
		g := gen.StackedTriangulation(n, rng)
		mustAccept(t, g, "stacked triangulation")
	}
}

func TestPlanarCompletenessOuterplanarAndSP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		mustAccept(t, gen.RandomOuterplanar(5+rng.Intn(30), rng.Float64(), rng), "outerplanar")
		mustAccept(t, gen.SeriesParallel(1+rng.Intn(40), rng), "series-parallel")
		mustAccept(t, gen.RandomTree(2+rng.Intn(60), rng), "tree")
	}
}

func TestPlanarProverRejectsNonMembers(t *testing.T) {
	scheme := core.PlanarScheme{}
	bad := []*graph.Graph{
		gen.Complete(5),
		gen.CompleteBipartite(3, 3),
		graph.New(0),
	}
	disc := graph.NewWithNodes(4)
	disc.MustAddEdge(0, 1)
	bad = append(bad, disc)
	for i, g := range bad {
		if _, err := scheme.Prove(g); err == nil {
			t.Fatalf("graph %d: prover produced certificates outside the class", i)
		}
	}
}

func TestPlanarCertificateSizeLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// max certificate bits must grow like c*log2(n): verify the ratio
	// bits/log2(n) stays bounded as n grows 64x.
	var ratios []float64
	for _, n := range []int{64, 512, 4096} {
		g := gen.StackedTriangulation(n, rng)
		maxBits := mustAccept(t, g, "size probe")
		ratios = append(ratios, float64(maxBits)/math.Log2(float64(n)))
	}
	// The ratio should not blow up; allow slack for var-encoding overhead.
	if ratios[2] > 2.0*ratios[0] {
		t.Fatalf("certificate bits super-logarithmic: ratios %v", ratios)
	}
}

func TestPlanarSoundnessReplayOnNonPlanar(t *testing.T) {
	// Replay attack: take honest certificates from a planar graph, then add
	// the edge that makes it non-planar and keep all certificates. The new
	// edge has no certificate, so its endpoints must reject.
	rng := rand.New(rand.NewSource(6))
	g := gen.StackedTriangulation(14, rng)
	scheme := core.PlanarScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	added := false
	for u := 0; u < h.N() && !added; u++ {
		for v := u + 1; v < h.N() && !added; v++ {
			if !h.HasEdge(u, v) {
				h.MustAddEdge(u, v)
				added = true
			}
		}
	}
	if !added {
		t.Fatal("no edge to add")
	}
	out := pls.RunWithCerts(scheme, h, certs)
	if out.AllAccept() {
		t.Fatal("non-planar graph accepted with replayed certificates")
	}
}

func TestPlanarSoundnessRandomCertsOnK5(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.Complete(5)
	scheme := core.PlanarScheme{}
	for trial := 0; trial < 300; trial++ {
		certs := make(map[graph.ID]bits.Certificate, g.N())
		for v := 0; v < g.N(); v++ {
			var w bits.Writer
			nbits := rng.Intn(200)
			for i := 0; i < nbits; i++ {
				w.WriteBit(rng.Intn(2) == 0)
			}
			certs[g.IDOf(v)] = bits.FromWriter(&w)
		}
		if pls.RunWithCerts(scheme, g, certs).AllAccept() {
			t.Fatalf("trial %d: random certificates accepted on K5", trial)
		}
	}
}

// stealCertsFrom runs the cross-instance replay attack: certificates from
// a DIFFERENT (planar) graph with the same IDs are presented on a
// non-planar graph.
func TestPlanarSoundnessCrossInstanceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scheme := core.PlanarScheme{}
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		donor, err := gen.RandomPlanar(n, 2*n-3, rng)
		if err != nil {
			t.Fatal(err)
		}
		certs, err := scheme.Prove(donor)
		if err != nil {
			t.Fatal(err)
		}
		// Victim: non-planar graph on the same vertex set / IDs.
		victim, err := gen.PlantSubdivision(n, trial%2 == 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		// PlantSubdivision adds nodes; give the extras empty certificates.
		out := pls.RunWithCerts(scheme, victim, certs)
		if out.AllAccept() {
			t.Fatalf("trial %d: cross-instance replay accepted", trial)
		}
	}
}

func TestPlanarSoundnessBitFlips(t *testing.T) {
	// Flip individual bits of honest certificates on a planar graph whose
	// planarity hinges on structure; the graph stays planar (so acceptance
	// is not *wrong*), but any accepted mutation must still encode a valid
	// proof — decoding failures or structural mismatches must reject, and
	// crucially flipping bits on a NON-planar instance (forged from a
	// planar donor sharing certificates) must never reach acceptance.
	rng := rand.New(rand.NewSource(9))
	g := gen.Complete(5)
	scheme := core.PlanarScheme{}
	donor := gen.Complete(4) // planar: K4 certificates as raw material
	baseCerts, err := scheme.Prove(donor)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		certs := make(map[graph.ID]bits.Certificate, g.N())
		for v := 0; v < g.N(); v++ {
			src, ok := baseCerts[graph.ID(v%4)]
			if !ok {
				t.Fatal("missing donor cert")
			}
			data := append([]byte(nil), src.Data...)
			if len(data) > 0 {
				for k := 0; k < 1+rng.Intn(3); k++ {
					pos := rng.Intn(src.Bits)
					data[pos/8] ^= 1 << (7 - uint(pos%8))
				}
			}
			certs[g.IDOf(v)] = bits.Certificate{Data: data, Bits: src.Bits}
		}
		if pls.RunWithCerts(scheme, g, certs).AllAccept() {
			t.Fatalf("trial %d: mutated donor certificates accepted on K5", trial)
		}
	}
}

func TestPlanarSoundnessNonPlanarFamilies(t *testing.T) {
	// For each non-planar instance, run a battery of structured forgeries:
	// honest-style certificates cannot exist, so we approximate the
	// adversary with (a) certificates from a planar spanning subgraph and
	// (b) targeted mutations thereof. All must be rejected.
	rng := rand.New(rand.NewSource(10))
	scheme := core.PlanarScheme{}
	instances := []*graph.Graph{
		gen.Complete(5),
		gen.Complete(6),
		gen.CompleteBipartite(3, 3),
		gen.CompleteBipartite(3, 4),
		petersen(),
	}
	for gi, g := range instances {
		// Planar spanning subgraph: delete edges until planar.
		sub := g.Clone()
		for _, e := range sub.Edges() {
			if plan, _ := scheme.Prove(sub); plan != nil {
				break
			}
			sub.RemoveEdge(e.U, e.V)
			if !sub.Connected() {
				sub.MustAddEdge(e.U, e.V)
			}
		}
		certs, err := scheme.Prove(sub)
		if err != nil {
			// Could not make it planar by greedy deletion; skip donor step.
			continue
		}
		out := pls.RunWithCerts(scheme, g, certs)
		if out.AllAccept() {
			t.Fatalf("instance %d: planar-subgraph certificates accepted on non-planar graph", gi)
		}
		_ = rng
	}
}

func petersen() *graph.Graph {
	g := graph.NewWithNodes(10)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5)
		g.MustAddEdge(5+i, 5+(i+2)%5)
		g.MustAddEdge(i, 5+i)
	}
	return g
}

func TestPlanarTamperedFieldRejected(t *testing.T) {
	// Decode an honest certificate, tamper one semantic field, re-encode.
	rng := rand.New(rand.NewSource(11))
	g, err := gen.RandomPlanar(16, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	scheme := core.PlanarScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	tampers := []struct {
		name string
		mod  func(*core.PlanarCert) bool // returns false if inapplicable
	}{
		{"size", func(c *core.PlanarCert) bool { c.Tree.Size += 2; return true }},
		{"dist", func(c *core.PlanarCert) bool { c.Tree.Dist++; return true }},
		{"rank shift", func(c *core.PlanarCert) bool {
			for k := range c.Edges {
				if e := &c.Edges[k]; e.IsTree {
					e.Rank[1]++ // CMin
					return true
				}
			}
			return false
		}},
		{"interval widen", func(c *core.PlanarCert) bool {
			for k := range c.Edges {
				if e := &c.Edges[k]; !e.IsTree && e.Iv[0].A > 0 {
					e.Iv[0].A--
					return true
				}
			}
			return false
		}},
		{"cotree rank", func(c *core.PlanarCert) bool {
			for k := range c.Edges {
				if e := &c.Edges[k]; !e.IsTree {
					e.Rank[0]++
					return true
				}
			}
			return false
		}},
		{"drop edge cert", func(c *core.PlanarCert) bool {
			if len(c.Edges) == 0 {
				return false
			}
			c.Edges = c.Edges[1:]
			return true
		}},
		{"duplicate edge cert", func(c *core.PlanarCert) bool {
			if len(c.Edges) == 0 || len(c.Edges) >= core.MaxEdgeCerts {
				return false
			}
			c.Edges = append(c.Edges, c.Edges[0])
			return true
		}},
	}
	ids := g.IDs()
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			applied := false
			for attempt := 0; attempt < g.N() && !applied; attempt++ {
				victim := ids[rng.Intn(len(ids))]
				dec, err := core.DecodePlanarCert(certs[victim].Reader())
				if err != nil {
					t.Fatal(err)
				}
				if !tc.mod(dec) {
					continue
				}
				applied = true
				forged := make(map[graph.ID]bits.Certificate, len(certs))
				for id, c := range certs {
					forged[id] = c
				}
				var w bits.Writer
				if err := dec.Encode(&w); err != nil {
					t.Fatal(err)
				}
				forged[victim] = bits.FromWriter(&w)
				// A tamper that edits a copy re-encodes the honest bytes
				// and would pass vacuously below.
				if forged[victim].Equal(certs[victim]) {
					t.Fatalf("tamper %q left the encoded certificate unchanged", tc.name)
				}
				if pls.RunWithCerts(scheme, g, forged).AllAccept() {
					t.Fatalf("tamper %q accepted", tc.name)
				}
			}
			if !applied {
				t.Skipf("tamper %q not applicable to sampled nodes", tc.name)
			}
		})
	}
}

func TestPlanarVerifierOneRoundStats(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.StackedTriangulation(40, rng)
	out, err := pls.Run(core.PlanarScheme{}, g)
	if err != nil {
		t.Fatal(err)
	}
	if out.Messages != 2*g.M() {
		t.Fatalf("messages = %d, want %d (one round)", out.Messages, 2*g.M())
	}
}
