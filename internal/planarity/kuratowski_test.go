package planarity_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/minor"
	"github.com/planarcert/planarcert/internal/planarity"
)

// checkWitness checks w against the original graph g alone, without the
// extraction's own bookkeeping: every path step is an edge of g; interior
// path vertices are not branch vertices and lie on exactly one path; the
// paths join the branch pairs of K5, or of K3,3 with Branch[0..2] and
// Branch[3..5] as its sides; Edges is exactly the set of path edges; and
// deleting any one witness edge leaves the witness subgraph planar.
func checkWitness(g *graph.Graph, w *planarity.Witness) error {
	var k, wantPaths int
	switch w.Kind {
	case planarity.KindK5:
		k, wantPaths = 5, 10
	case planarity.KindK33:
		k, wantPaths = 6, 9
	default:
		return fmt.Errorf("unknown kind %v", w.Kind)
	}
	if len(w.Branch) != k || len(w.Paths) != wantPaths {
		return fmt.Errorf("%v witness has %d branch vertices and %d paths", w.Kind, len(w.Branch), len(w.Paths))
	}
	branch := make(map[int]int, k) // branch vertex -> position in Branch
	for i, b := range w.Branch {
		if b < 0 || b >= g.N() {
			return fmt.Errorf("branch vertex %d out of range", b)
		}
		if _, dup := branch[b]; dup {
			return fmt.Errorf("branch vertex %d listed twice", b)
		}
		branch[b] = i
	}
	joined := make(map[[2]int]bool, wantPaths)
	interior := make(map[int]bool)
	pathEdges := make(map[graph.Edge]bool)
	for _, p := range w.Paths {
		if len(p) < 2 {
			return fmt.Errorf("path %v too short", p)
		}
		a, okA := branch[p[0]]
		b, okB := branch[p[len(p)-1]]
		if !okA || !okB {
			return fmt.Errorf("path %v does not join two branch vertices", p)
		}
		if a > b {
			a, b = b, a
		}
		if a == b || joined[[2]int{a, b}] {
			return fmt.Errorf("path %v repeats branch pair (%d,%d)", p, a, b)
		}
		if w.Kind == planarity.KindK33 && (a >= 3) == (b >= 3) {
			return fmt.Errorf("path %v joins two branch vertices on one side", p)
		}
		joined[[2]int{a, b}] = true
		for i, v := range p {
			if i > 0 {
				e := graph.NewEdge(p[i-1], v)
				if !g.HasEdge(e.U, e.V) {
					return fmt.Errorf("path step %v is not an edge of g", e)
				}
				if pathEdges[e] {
					return fmt.Errorf("edge %v used twice", e)
				}
				pathEdges[e] = true
			}
			if i == 0 || i == len(p)-1 {
				continue
			}
			if _, isBranch := branch[v]; isBranch {
				return fmt.Errorf("branch vertex %d interior to path %v", v, p)
			}
			if interior[v] {
				return fmt.Errorf("interior vertex %d on two paths", v)
			}
			interior[v] = true
		}
	}
	// Distinct pairs, the right count, and (for K3,3) only cross pairs
	// means the branch pairs are exactly K5's or K3,3's.
	if len(w.Edges) != len(pathEdges) {
		return fmt.Errorf("Edges has %d entries, paths use %d edges", len(w.Edges), len(pathEdges))
	}
	for _, e := range w.Edges {
		if !pathEdges[e] {
			return fmt.Errorf("edge %v in Edges is on no path", e)
		}
	}
	// Relabel the witness vertices densely and delete each edge in turn.
	index := make(map[int]int)
	for e := range pathEdges {
		for _, v := range []int{e.U, e.V} {
			if _, ok := index[v]; !ok {
				index[v] = len(index)
			}
		}
	}
	for _, skip := range w.Edges {
		sub := graph.NewWithNodes(len(index))
		for _, e := range w.Edges {
			if e != skip {
				sub.MustAddEdge(index[e.U], index[e.V])
			}
		}
		if !planarity.IsPlanar(sub) {
			return fmt.Errorf("witness minus %v is still non-planar", skip)
		}
	}
	return nil
}

// churnGraph is the non-planar shape of a churning maximal planar
// network: a stacked triangulation on n vertices plus one non-edge.
func churnGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := gen.StackedTriangulation(n, rng)
	for {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
			return g
		}
	}
}

// mustWitness extracts a witness from g and checks it independently.
func mustWitness(t *testing.T, g *graph.Graph, label string) *planarity.Witness {
	t.Helper()
	w, err := planarity.Kuratowski(g)
	if err != nil {
		t.Fatalf("%s: Kuratowski: %v", label, err)
	}
	if err := checkWitness(g, w); err != nil {
		t.Fatalf("%s: %v witness fails the independent check: %v", label, w.Kind, err)
	}
	return w
}

func TestKuratowskiOnPlanarInput(t *testing.T) {
	if _, err := planarity.Kuratowski(gen.Grid(3, 3)); !errors.Is(err, planarity.ErrPlanarInput) {
		t.Fatalf("Kuratowski on planar input: err = %v, want ErrPlanarInput", err)
	}
}

func TestKuratowskiOnK5(t *testing.T) {
	w := mustWitness(t, gen.Complete(5), "K5")
	if w.Kind != planarity.KindK5 {
		t.Fatalf("kind = %v, want K5", w.Kind)
	}
	if len(w.Branch) != 5 || len(w.Paths) != 10 || len(w.Edges) != 10 {
		t.Fatalf("witness shape = (%d branch, %d paths, %d edges)",
			len(w.Branch), len(w.Paths), len(w.Edges))
	}
}

func TestKuratowskiOnK33(t *testing.T) {
	w := mustWitness(t, gen.CompleteBipartite(3, 3), "K3,3")
	if w.Kind != planarity.KindK33 {
		t.Fatalf("kind = %v, want K3,3", w.Kind)
	}
	if len(w.Branch) != 6 || len(w.Paths) != 9 {
		t.Fatalf("witness shape = (%d branch, %d paths)", len(w.Branch), len(w.Paths))
	}
}

func TestKuratowskiOnSubdivisions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		k5 := trial%2 == 0
		g := gen.KuratowskiSubdivision(k5, 4, rng)
		w := mustWitness(t, g, fmt.Sprintf("trial %d", trial))
		want := planarity.KindK33
		if k5 {
			want = planarity.KindK5
		}
		if w.Kind != want {
			t.Fatalf("trial %d: kind = %v, want %v", trial, w.Kind, want)
		}
	}
}

// TestKuratowskiWitnessProvesNonPlanarity is the completeness cross-check
// for the LR test: any graph reported non-planar must yield a Kuratowski
// subdivision that passes the independent check, i.e. a *proof* of the
// answer.
func TestKuratowskiWitnessProvesNonPlanarity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	extracted := 0
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(12)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := gen.GNM(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		if planarity.IsPlanar(g) {
			continue
		}
		mustWitness(t, g, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m))
		extracted++
	}
	if extracted < 10 {
		t.Fatalf("only %d non-planar instances exercised; weak test", extracted)
	}
}

func TestKuratowskiOnPlantedHost(t *testing.T) {
	for seed := int64(9); seed < 13; seed++ {
		g, err := gen.PlantSubdivision(30, seed%2 == 1, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		mustWitness(t, g, fmt.Sprintf("planted seed %d", seed))
	}
}

// TestKuratowskiOnChurnShape extracts witnesses from the graphs a
// churning maximal planar network passes through, at the sizes the
// benchmark and the daemon see, and at n=50000.
func TestKuratowskiOnChurnShape(t *testing.T) {
	for _, n := range []int{200, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			mustWitness(t, churnGraph(n, seed), fmt.Sprintf("churn n=%d seed %d", n, seed))
		}
	}
	mustWitness(t, churnGraph(50000, 1), "churn n=50000 seed 1")
}

// TestKuratowskiCompactionParity checks that compacting the LR tester
// changes no decision: a tester that never compacts returns the same
// witness.
func TestKuratowskiCompactionParity(t *testing.T) {
	type input struct {
		label string
		g     *graph.Graph
	}
	var inputs []input
	for _, n := range []int{200, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			inputs = append(inputs, input{fmt.Sprintf("churn n=%d seed %d", n, seed), churnGraph(n, seed)})
		}
		for _, k5 := range []bool{true, false} {
			g, err := gen.PlantSubdivision(n, k5, rand.New(rand.NewSource(int64(n))))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("planted n=%d k5=%v", n, k5), g})
		}
	}
	for _, in := range inputs {
		w := mustWitness(t, in.g, in.label)
		plain, err := planarity.KuratowskiUncompacted(in.g)
		if err != nil {
			t.Fatalf("%s: uncompacted: %v", in.label, err)
		}
		if !reflect.DeepEqual(w, plain) {
			t.Fatalf("%s: compacted and uncompacted testers disagree:\n%+v\n%+v", in.label, w, plain)
		}
	}
}

// TestKuratowskiWorkBudget bounds the work of one extraction on the churn
// shape: the LR tests together scan fewer than 12·m tester edges.
func TestKuratowskiWorkBudget(t *testing.T) {
	for _, n := range []int{200, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			g := churnGraph(n, seed)
			stop := planarity.CountTests()
			w, err := planarity.Kuratowski(g)
			tests, scanned := stop()
			if err != nil {
				t.Fatal(err)
			}
			m := float64(g.M())
			t.Logf("n=%d seed %d: %d-edge %v witness, %d LR tests scanning %d edges (%.1f·m, budget 12·m)",
				n, seed, len(w.Edges), w.Kind, tests, scanned, float64(scanned)/m)
			if float64(scanned) >= 12*m {
				t.Fatalf("n=%d seed %d: %d LR tests scanned %d edges, budget 12·m = %.0f", n, seed, tests, scanned, 12*m)
			}
		}
	}
}

// TestKuratowskiRegionPlanarFallback takes the path where the region the
// LR test fails on reads as planar: the witness must then come from
// halving block deletion over the whole graph, as without narrowing,
// and the tester must have been restored for both the compacting and
// the mask-only extraction.
func TestKuratowskiRegionPlanarFallback(t *testing.T) {
	inputs := []*graph.Graph{churnGraph(200, 1), churnGraph(200, 2), churnGraph(2000, 1)}
	for _, k5 := range []bool{true, false} {
		g, err := gen.PlantSubdivision(200, k5, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, g)
	}
	for i, g := range inputs {
		label := fmt.Sprintf("input %d", i)
		want, err := planarity.KuratowskiUnnarrowed(g)
		if err != nil {
			t.Fatalf("%s: unnarrowed: %v", label, err)
		}
		stop := planarity.CountTests()
		mustWitness(t, g, label)
		_, narrowed := stop()

		var w, plain *planarity.Witness
		var full int
		func() {
			defer planarity.ForceRegionPlanar()()
			stop := planarity.CountTests()
			w = mustWitness(t, g, label+" (region planar)")
			_, full = stop()
			plain, err = planarity.KuratowskiUncompacted(g)
		}()
		if err != nil {
			t.Fatalf("%s: uncompacted (region planar): %v", label, err)
		}
		if !reflect.DeepEqual(w, want) || !reflect.DeepEqual(plain, want) {
			t.Fatalf("%s: with the region read as planar, the witness differs from the unnarrowed one:\n%+v\n%+v\n%+v", label, w, plain, want)
		}
		if full <= narrowed {
			t.Fatalf("%s: with the region read as planar the tests scanned %d edges, narrowed %d", label, full, narrowed)
		}
	}
}

// TestKuratowskiAgreesWithWagner cross-checks the LR verdict on small
// graphs against an exhaustive minor search: by Wagner's theorem a graph
// is non-planar iff it has a K5 or a K3,3 minor.
func TestKuratowskiAgreesWithWagner(t *testing.T) {
	const budget = 1 << 22
	rng := rand.New(rand.NewSource(17))
	planarCount, nonPlanarCount := 0, 0
	for trial := 0; trial < 150; trial++ {
		n := 5 + rng.Intn(4)
		g, err := gen.GNM(n, 7+rng.Intn(n*(n-1)/2-6), rng)
		if err != nil {
			t.Fatal(err)
		}
		k5, err := minor.FindComplete(g, 5, budget)
		if err != nil {
			t.Fatalf("trial %d: K5 search: %v", trial, err)
		}
		k33, err := minor.FindBipartite(g, 3, 3, budget)
		if err != nil {
			t.Fatalf("trial %d: K3,3 search: %v", trial, err)
		}
		planar := planarity.IsPlanar(g)
		if planar != (k5 == nil && k33 == nil) {
			t.Fatalf("trial %d: LR says planar=%v, minor search finds K5=%v K3,3=%v in %v",
				trial, planar, k5 != nil, k33 != nil, g)
		}
		if planar {
			planarCount++
		} else {
			mustWitness(t, g, fmt.Sprintf("trial %d", trial))
			nonPlanarCount++
		}
	}
	if planarCount < 20 || nonPlanarCount < 20 {
		t.Fatalf("unbalanced sample: %d non-planar, %d planar", nonPlanarCount, planarCount)
	}
}

// BenchmarkKuratowski times witness extraction on the churn shape, and
// reports the LR tests per extraction and the tester edges they scan per
// edge of g. Regenerate BENCH_nonplanar.json with
//
//	go test -run '^$' -bench BenchmarkKuratowski -benchmem -count 5 ./internal/planarity/
func BenchmarkKuratowski(b *testing.B) {
	for _, n := range []int{200, 2000, 10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := churnGraph(n, 1)
			stop := planarity.CountTests()
			for b.Loop() {
				if _, err := planarity.Kuratowski(g); err != nil {
					b.Fatal(err)
				}
			}
			tests, scanned := stop()
			b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
			b.ReportMetric(float64(scanned)/float64(b.N)/float64(g.M()), "scanned/m")
		})
	}
}

func TestOuterplanar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"path", gen.Path(10), true},
		{"cycle", gen.Cycle(10), true},
		{"tree", gen.RandomTree(20, rng), true},
		{"outerplanar", gen.RandomOuterplanar(15, 0.8, rng), true},
		{"K4", gen.Complete(4), false},
		{"K2,3", gen.CompleteBipartite(2, 3), false},
		{"wheel", gen.Wheel(8), false},
		{"grid-3x3", gen.Grid(3, 3), false},
		{"K5", gen.Complete(5), false},
		{"single", graph.NewWithNodes(1), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := planarity.Outerplanar(tc.g); got != tc.want {
				t.Fatalf("Outerplanar(%s) = %v, want %v", tc.name, got, tc.want)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if planarity.KindK5.String() != "K5" || planarity.KindK33.String() != "K3,3" {
		t.Fatal("Kind.String wrong")
	}
	if planarity.Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String wrong")
	}
}
