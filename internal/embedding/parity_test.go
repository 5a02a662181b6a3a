package embedding_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/embedding"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
)

// refGenus is the Faces()-based genus count the dart-array Genus
// replaced, kept as its reference.
func refGenus(r *embedding.Rotation, g *graph.Graph) int {
	comps := g.Components()
	compOf := make([]int, g.N())
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	facesPer := make([]int, len(comps))
	for _, face := range r.Faces() {
		facesPer[compOf[face[0]]]++
	}
	edgesPer := make([]int, len(comps))
	for _, e := range g.Edges() {
		edgesPer[compOf[e.U]]++
	}
	total := 0
	for ci, comp := range comps {
		f := facesPer[ci]
		if edgesPer[ci] == 0 {
			f = 1
		}
		total += (2 - len(comp) + edgesPer[ci] - f) / 2
	}
	return total
}

// refValidate is the map-per-vertex Validate the stamp array replaced.
func refValidate(r *embedding.Rotation, g *graph.Graph) error {
	if len(r.Order) != g.N() {
		return fmt.Errorf("embedding: rotation has %d vertices, graph has %d", len(r.Order), g.N())
	}
	for u := 0; u < g.N(); u++ {
		if len(r.Order[u]) != g.Degree(u) {
			return fmt.Errorf("embedding: vertex %d rotation lists %d neighbors, degree is %d",
				u, len(r.Order[u]), g.Degree(u))
		}
		seen := make(map[int]bool, len(r.Order[u]))
		for _, v := range r.Order[u] {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("embedding: rotation at %d lists non-neighbor %d", u, v)
			}
			if seen[v] {
				return fmt.Errorf("embedding: rotation at %d lists %d twice", u, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// planarFamily returns planar graphs that cover the genus count's edge
// cases: triangulations, sparse and disconnected random planar graphs,
// trees, and graphs with isolated vertices.
func planarFamily(rng *rand.Rand) []*graph.Graph {
	var out []*graph.Graph
	for _, n := range []int{1, 2, 3, 7, 30, 120} {
		out = append(out, gen.StackedTriangulation(n, rng), gen.RandomTree(n, rng))
		if g, err := gen.RandomPlanar(n, n, rng); err == nil {
			out = append(out, g)
		}
	}
	out = append(out, gen.Grid(5, 7), gen.Wheel(9), graph.NewWithNodes(4))
	// Disconnected: a triangulation plus a cycle plus isolated vertices.
	g := gen.StackedTriangulation(20, rng)
	base := g.N()
	for i := 0; i < 5; i++ {
		g.MustAddNode(graph.ID(base + i))
	}
	g.MustAddEdge(base, base+1)
	g.MustAddEdge(base+1, base+2)
	g.MustAddEdge(base+2, base)
	return append(out, g)
}

// shuffled returns g's adjacency rotation with every list permuted: a
// valid rotation system that is usually not planar.
func shuffled(g *graph.Graph, rng *rand.Rand) *embedding.Rotation {
	r := embedding.FromAdjacency(g)
	for _, ord := range r.Order {
		rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
	}
	return r
}

func TestGenusMatchesFaceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	positive := 0
	for gi, g := range planarFamily(rng) {
		rots := []*embedding.Rotation{shuffled(g, rng), shuffled(g, rng)}
		if ok, rot, err := planarity.Check(g); err != nil || !ok {
			t.Fatalf("graph %d: LR check = %v, %v", gi, ok, err)
		} else {
			rots = append(rots, rot)
		}
		for ri, r := range rots {
			got, want := r.Genus(g), refGenus(r, g)
			if want > 0 {
				positive++
			}
			if got != want {
				t.Fatalf("graph %d (%v) rotation %d: Genus = %d, face count gives %d", gi, g, ri, got, want)
			}
			planar, err := r.IsPlanar(g)
			if err != nil || planar != (want == 0) {
				t.Fatalf("graph %d rotation %d: IsPlanar = %v, %v; genus %d", gi, ri, planar, err, want)
			}
			if ri == len(rots)-1 && want != 0 {
				t.Fatalf("graph %d: LR rotation has genus %d", gi, want)
			}
		}
	}
	if positive == 0 {
		t.Fatal("no shuffled rotation had positive genus; the parity check never left the plane")
	}
}

// TestDartsIndex checks the dart index against its definition: Edges is
// g.Edges(), Lo[e] leaves e.U towards e.V, and Rev pairs opposite darts.
func TestDartsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for gi, g := range planarFamily(rng) {
		r := shuffled(g, rng)
		d, err := r.Index(g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(d.Edges, g.Edges()) {
			t.Fatalf("graph %d: dart edges differ from g.Edges()", gi)
		}
		head := func(x int32) int {
			u := 0
			for d.Off[u+1] <= x {
				u++
			}
			return r.Order[u][x-d.Off[u]]
		}
		for e, ge := range d.Edges {
			lo := d.Lo[e]
			if lo < d.Off[ge.U] || lo >= d.Off[ge.U+1] || head(lo) != ge.V {
				t.Fatalf("graph %d: Lo[%v] = %d does not leave %d towards %d", gi, ge, lo, ge.U, ge.V)
			}
			if hi := d.Rev[lo]; hi < d.Off[ge.V] || hi >= d.Off[ge.V+1] || head(hi) != ge.U || d.Rev[hi] != lo {
				t.Fatalf("graph %d: Rev[Lo[%v]] = %d is not the opposite dart", gi, ge, hi)
			}
		}
	}
}

func TestValidateMatchesReference(t *testing.T) {
	g := gen.StackedTriangulation(12, rand.New(rand.NewSource(5)))
	cases := map[string]func(r *embedding.Rotation){
		"valid":         func(r *embedding.Rotation) {},
		"wrong length":  func(r *embedding.Rotation) { r.Order = r.Order[:len(r.Order)-1] },
		"short list":    func(r *embedding.Rotation) { r.Order[3] = r.Order[3][1:] },
		"non-neighbor":  func(r *embedding.Rotation) { r.Order[0][0] = nonNeighbor(g, 0) },
		"self":          func(r *embedding.Rotation) { r.Order[5][1] = 5 },
		"duplicate":     func(r *embedding.Rotation) { r.Order[2][1] = r.Order[2][0] },
		"out of range":  func(r *embedding.Rotation) { r.Order[4][0] = g.N() + 3 },
		"negative":      func(r *embedding.Rotation) { r.Order[6][2] = -1 },
		"late mismatch": func(r *embedding.Rotation) { r.Order[g.N()-1][0] = g.N() },
	}
	for name, corrupt := range cases {
		r := embedding.FromAdjacency(g)
		corrupt(r)
		got, want := r.Validate(g), refValidate(r, g)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Validate = %v, reference %v", name, got, want)
		}
		if name != "valid" && got == nil {
			t.Errorf("%s: Validate accepted a corrupt rotation", name)
		}
	}
}

// nonNeighbor returns a vertex other than u that is not adjacent to u.
func nonNeighbor(g *graph.Graph, u int) int {
	for v := 0; v < g.N(); v++ {
		if v != u && !g.HasEdge(u, v) {
			return v
		}
	}
	panic("vertex adjacent to everything")
}
