package core

import (
	"math/rand"
	"testing"

	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// checkTransform validates every structural invariant of a transform.
func checkTransform(t *testing.T, g *graph.Graph, label string) *Transform {
	t.Helper()
	tr, err := TransformOf(g)
	if err != nil {
		t.Fatalf("%s: TransformOf: %v", label, err)
	}
	n := g.N()
	if tr.N2 != 2*n-1 {
		t.Fatalf("%s: N2 = %d, want %d", label, tr.N2, 2*n-1)
	}
	// f is onto, with deg_T(v) copies per non-root vertex and deg_T(r)+1
	// at the root.
	for v := 0; v < n; v++ {
		wantCopies := len(tr.ChildOrder[v]) + 1
		if tr.NumCopies(v) != wantCopies {
			t.Fatalf("%s: vertex %d has %d copies, want %d", label, v, tr.NumCopies(v), wantCopies)
		}
		for _, r := range tr.Copies[v] {
			if tr.F[r] != v {
				t.Fatalf("%s: F[%d] = %d, want %d", label, r, tr.F[r], v)
			}
		}
	}
	// Root holds ranks 1 and 2n-1.
	rc := tr.Copies[tr.Root]
	if rc[0] != 1 || rc[len(rc)-1] != tr.N2 {
		t.Fatalf("%s: root copies %v do not span {1, %d}", label, rc, tr.N2)
	}
	// The identity order is a witness: pairwise Definition 1 check on the
	// cotree PO edges (independent of the sweep used internally).
	if err := CheckWitnessPairwise(tr.chords()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Lemma 4 round trip.
	if _, err := tr.ContractBack(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// Subtree-size identity: CMax - CMin + 1 = 2*size - 1.
	var sub func(v int) int
	sub = func(v int) int {
		s := 1
		for _, c := range tr.ChildOrder[v] {
			s += sub(c)
		}
		return s
	}
	for v := 0; v < n; v++ {
		c := tr.Copies[v]
		if span := c[len(c)-1] - c[0] + 1; span != 2*sub(v)-1 {
			t.Fatalf("%s: vertex %d rank span %d != 2*%d-1", label, v, span, sub(v))
		}
	}
	return tr
}

func TestTransformSmallFixed(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"K1", graph.NewWithNodes(1)},
		{"K2", gen.Path(2)},
		{"path-5", gen.Path(5)},
		{"triangle", gen.Cycle(3)},
		{"cycle-7", gen.Cycle(7)},
		{"K4", gen.Complete(4)},
		{"star-6", gen.Star(6)},
		{"grid-3x3", gen.Grid(3, 3)},
		{"wheel-8", gen.Wheel(8)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			checkTransform(t, tc.g, tc.name)
		})
	}
}

func TestTransformRandomPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		maxM := 3*n - 6
		if n < 3 {
			maxM = n - 1
		}
		m := n - 1
		if maxM > n-1 {
			m += rng.Intn(maxM - n + 2)
		}
		g, err := gen.RandomPlanar(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		checkTransform(t, g, "random")
	}
}

func TestTransformMaximalPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{3, 5, 10, 30, 100} {
		g := gen.StackedTriangulation(n, rng)
		checkTransform(t, g, "stacked")
	}
}

func TestTransformNonPlanarFails(t *testing.T) {
	if _, err := TransformOf(gen.Complete(5)); err == nil {
		t.Fatal("TransformOf(K5) succeeded")
	}
}

func TestTransformDisconnectedFails(t *testing.T) {
	g := graph.NewWithNodes(4)
	g.MustAddEdge(0, 1)
	if _, err := TransformOf(g); err == nil {
		t.Fatal("TransformOf on disconnected graph succeeded")
	}
}

func TestTransformIntervalsMatchDefinition(t *testing.T) {
	// Intervals computed by the sweep must equal the brute-force shortest
	// covering edge.
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(20)
		g, err := gen.RandomPlanar(n, 2*n-3, rng)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TransformOf(g)
		if err != nil {
			t.Fatal(err)
		}
		edges := tr.chords()
		for x := 1; x <= tr.N2; x++ {
			want := Sentinel(tr.N2)
			for _, e := range edges {
				if e.U < x && x < e.V && (e.V-e.U < want.B-want.A) {
					want = Interval{A: e.U, B: e.V}
				}
			}
			if tr.Intervals[x] != want {
				t.Fatalf("trial %d: I(%d) = %v, want %v", trial, x, tr.Intervals[x], want)
			}
		}
	}
}
