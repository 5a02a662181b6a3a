package core

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

// refTransform holds what the map-based BuildTransform produced.
type refTransform struct {
	parent, depth, f []int
	childOrder       [][]int
	copies           [][]int
	cotreeRanks      map[graph.Edge][2]int
	intervals        []Interval
}

// refBuildTransform is the recursive, map-based BuildTransform that the
// dart-indexed passes replaced (PositionOf scans, a child-rank map per
// cotree endpoint), kept as their reference.
func refBuildTransform(g *graph.Graph, rot *embedding.Rotation, root int) (*refTransform, error) {
	n := g.N()
	if err := rot.Validate(g); err != nil {
		return nil, err
	}
	t := &refTransform{
		parent:      make([]int, n),
		depth:       make([]int, n),
		f:           make([]int, 2*n),
		childOrder:  make([][]int, n),
		copies:      make([][]int, n),
		cotreeRanks: map[graph.Edge][2]int{},
	}
	for i := range t.parent {
		t.parent[i], t.depth[i] = -1, -1
	}
	t.parent[root], t.depth[root] = root, 0
	counter := 0
	var dfs func(v int)
	dfs = func(v int) {
		counter++
		t.f[counter] = v
		t.copies[v] = append(t.copies[v], counter)
		rotv := rot.Order[v]
		start := 0
		if v != root {
			start = rot.PositionOf(v, t.parent[v]) + 1
		}
		for s := 0; s < len(rotv); s++ {
			w := rotv[(start+s)%len(rotv)]
			if v != root && w == t.parent[v] {
				continue
			}
			if t.depth[w] == -1 {
				t.parent[w] = v
				t.depth[w] = t.depth[v] + 1
				t.childOrder[v] = append(t.childOrder[v], w)
				dfs(w)
				counter++
				t.f[counter] = v
				t.copies[v] = append(t.copies[v], counter)
			}
		}
	}
	dfs(root)
	if counter != 2*n-1 {
		return nil, fmt.Errorf("DFS covered %d ranks", counter)
	}
	copyFor := func(v, u int) int {
		rotv := rot.Order[v]
		slot := rot.PositionOf(v, u)
		copies := t.copies[v]
		start := 0
		if v != root {
			start = rot.PositionOf(v, t.parent[v])
		}
		rel := ((slot-start)%len(rotv) + len(rotv)) % len(rotv)
		childRank := map[int]int{}
		for k, c := range t.childOrder[v] {
			childRank[c] = k
		}
		for off := rel + 1; off < len(rotv); off++ {
			w := rotv[(start+off)%len(rotv)]
			if k, ok := childRank[w]; ok {
				return copies[k]
			}
			if v != root && w == t.parent[v] {
				return copies[len(copies)-1]
			}
		}
		return copies[len(copies)-1]
	}
	var chords []graph.Edge
	for _, e := range g.Edges() {
		if t.parent[e.U] == e.V || t.parent[e.V] == e.U {
			continue
		}
		ru, rv := copyFor(e.U, e.V), copyFor(e.V, e.U)
		t.cotreeRanks[e] = [2]int{ru, rv}
		chords = append(chords, graph.NewEdge(ru, rv))
	}
	ivs, err := ComputeIntervals(2*n-1, chords)
	if err != nil {
		return nil, err
	}
	t.intervals = ivs
	return t, nil
}

// compareTransform requires tr to carry exactly the reference's output.
func compareTransform(t *testing.T, label string, tr *Transform, ref *refTransform) {
	t.Helper()
	eq2 := func(a, b [][]int) bool {
		return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
	}
	switch {
	case !slices.Equal(tr.Parent, ref.parent):
		t.Fatalf("%s: Parent differs", label)
	case !slices.Equal(tr.Depth, ref.depth):
		t.Fatalf("%s: Depth differs", label)
	case !slices.Equal(tr.F, ref.f):
		t.Fatalf("%s: F differs", label)
	case !eq2(tr.ChildOrder, ref.childOrder):
		t.Fatalf("%s: ChildOrder differs", label)
	case !eq2(tr.Copies, ref.copies):
		t.Fatalf("%s: Copies differs", label)
	case !slices.Equal(tr.Intervals, ref.intervals):
		t.Fatalf("%s: Intervals differ", label)
	}
	cotree := 0
	for e, ge := range tr.Edges {
		want, ok := ref.cotreeRanks[ge]
		if tr.IsTree(e) {
			if ok {
				t.Fatalf("%s: %v is a tree edge, reference has chord %v", label, ge, want)
			}
			continue
		}
		cotree++
		if tr.CotreeRanks[e] != want {
			t.Fatalf("%s: chord of %v = %v, reference %v", label, ge, tr.CotreeRanks[e], want)
		}
	}
	if cotree != len(ref.cotreeRanks) || len(tr.chords()) != cotree {
		t.Fatalf("%s: %d chords, reference %d", label, cotree, len(ref.cotreeRanks))
	}
}

// TestBuildTransformMatchesReference checks the dart-indexed transform
// against the reference on LR rotations from every root, on the apex
// rotations of the outerplanarity prover, and on shuffled (non-planar)
// rotations, which both must reject.
func TestBuildTransformMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		var g *graph.Graph
		switch trial % 3 {
		case 0:
			g = gen.StackedTriangulation(n, rng)
		case 1:
			g = gen.RandomTree(n, rng)
		default:
			var err error
			if g, err = gen.RandomPlanar(n, n+rng.Intn(2*n), rng); err != nil || !g.Connected() {
				g = gen.StackedTriangulation(n, rng)
			}
		}
		ok, rot, err := planarity.Check(g)
		if err != nil || !ok {
			t.Fatalf("trial %d: LR check = %v, %v", trial, ok, err)
		}
		for _, root := range []int{0, rng.Intn(n), n - 1} {
			label := fmt.Sprintf("trial %d root %d", trial, root)
			tr, err := BuildTransform(g, rot, root)
			ref, refErr := refBuildTransform(g, rot, root)
			if err != nil || refErr != nil {
				t.Fatalf("%s: BuildTransform %v, reference %v", label, err, refErr)
			}
			compareTransform(t, label, tr, ref)
		}
		// A shuffled rotation is usually non-planar; both must agree.
		bad := embedding.FromAdjacency(g)
		for _, ord := range bad.Order {
			rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		}
		tr, err := BuildTransform(g, bad, 0)
		ref, refErr := refBuildTransform(g, bad, 0)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("trial %d shuffled: BuildTransform %v, reference %v", trial, err, refErr)
		}
		if err == nil {
			compareTransform(t, fmt.Sprintf("trial %d shuffled", trial), tr, ref)
		}
	}
	for trial := 0; trial < 20; trial++ {
		g := gen.RandomOuterplanar(3+rng.Intn(30), 0.7, rng)
		if !g.Connected() {
			continue
		}
		tr, err := outerplanarTransform(g)
		if err != nil {
			t.Fatal(err)
		}
		rot, root, err := outerplanarRotation(g)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refBuildTransform(g, rot, root)
		if err != nil {
			t.Fatal(err)
		}
		compareTransform(t, fmt.Sprintf("outerplanar %d", trial), tr, ref)
	}
}
