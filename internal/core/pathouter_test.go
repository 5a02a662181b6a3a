package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

func TestComputeIntervalsBasic(t *testing.T) {
	// Ranks 1..6 with nested chords {1,6}, {2,5}, {2,4}.
	edges := []graph.Edge{{U: 1, V: 6}, {U: 2, V: 5}, {U: 2, V: 4}}
	ivs, err := ComputeIntervals(6, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Interval{
		1: Sentinel(6),
		2: {1, 6},
		3: {2, 4},
		4: {2, 5},
		5: {1, 6},
		6: Sentinel(6),
	}
	for x, w := range want {
		if ivs[x] != w {
			t.Fatalf("I(%d) = %v, want %v", x, ivs[x], w)
		}
	}
}

func TestComputeIntervalsDetectsCrossing(t *testing.T) {
	edges := []graph.Edge{{U: 1, V: 3}, {U: 2, V: 4}}
	if _, err := ComputeIntervals(4, edges); !errors.Is(err, ErrCrossing) {
		t.Fatalf("crossing not detected: %v", err)
	}
	if err := CheckWitnessPairwise(edges); !errors.Is(err, ErrCrossing) {
		t.Fatalf("pairwise check missed the crossing: %v", err)
	}
}

func TestComputeIntervalsSharedEndpointsAllowed(t *testing.T) {
	// a <= c < d <= b with a == c is legal (Definition 1).
	edges := []graph.Edge{{U: 1, V: 5}, {U: 1, V: 3}, {U: 3, V: 5}}
	if _, err := ComputeIntervals(5, edges); err != nil {
		t.Fatal(err)
	}
	if err := CheckWitnessPairwise(edges); err != nil {
		t.Fatal(err)
	}
}

func TestComputeIntervalsRejectsBadRanks(t *testing.T) {
	if _, err := ComputeIntervals(3, []graph.Edge{{U: 0, V: 2}}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := ComputeIntervals(3, []graph.Edge{{U: 2, V: 5}}); err == nil {
		t.Fatal("rank beyond n accepted")
	}
}

// TestSweepAgreesWithPairwise cross-validates the two witness checkers on
// random chord sets.
func TestSweepAgreesWithPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(12)
		var edges []graph.Edge
		cnt := rng.Intn(8)
		for i := 0; i < cnt; i++ {
			a := 1 + rng.Intn(n-1)
			b := a + 1 + rng.Intn(n-a)
			if b > a+1 { // skip path-like edges; they never matter
				edges = append(edges, graph.Edge{U: a, V: b})
			}
		}
		_, sweepErr := ComputeIntervals(n, edges)
		pairErr := CheckWitnessPairwise(edges)
		if (sweepErr == nil) != (pairErr == nil) {
			t.Fatalf("trial %d: sweep=%v pairwise=%v edges=%v", trial, sweepErr, pairErr, edges)
		}
	}
}

// refComputeIntervals is the sort-and-rescan sweep ComputeIntervals
// replaced (per-rank slices sorted by end, the whole stack rescanned at
// every rank), kept as its reference.
func refComputeIntervals(n int, edges []graph.Edge) ([]Interval, error) {
	startsAt := make([][]int, n+2)
	for x, e := range edges {
		if e.U < 1 || e.V > n || e.U >= e.V {
			return nil, fmt.Errorf("core: edge %v outside rank range [1,%d]", e, n)
		}
		startsAt[e.U] = append(startsAt[e.U], x)
	}
	for a := range startsAt {
		sort.Slice(startsAt[a], func(i, j int) bool {
			return edges[startsAt[a][i]].V > edges[startsAt[a][j]].V
		})
	}
	intervals := make([]Interval, n+1)
	stack := make([]int, 0, len(edges))
	for x := 1; x <= n; x++ {
		for len(stack) > 0 && edges[stack[len(stack)-1]].V == x {
			stack = stack[:len(stack)-1]
		}
		for _, ei := range stack {
			if edges[ei].V <= x {
				return nil, fmt.Errorf("%w: edge %v still open at %d", ErrCrossing, edges[ei], x)
			}
		}
		if len(stack) > 0 {
			top := edges[stack[len(stack)-1]]
			intervals[x] = Interval{A: top.U, B: top.V}
		} else {
			intervals[x] = Sentinel(n)
		}
		for _, ei := range startsAt[x] {
			if len(stack) > 0 && edges[ei].V > edges[stack[len(stack)-1]].V {
				return nil, fmt.Errorf("%w: %v crosses %v", ErrCrossing, edges[ei], edges[stack[len(stack)-1]])
			}
			stack = append(stack, ei)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: %d edges still open after sweep", ErrCrossing, len(stack))
	}
	return intervals, nil
}

// TestComputeIntervalsMatchesReference checks the bucketed top-only
// sweep against the reference on random chord sets, crossing or not,
// including out-of-range ranks: same intervals, same error text.
func TestComputeIntervalsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(20)
		var edges []graph.Edge
		if trial%2 == 0 { // honest: the chords of a path-outerplanar graph
			po := gen.RandomPathOuterplanar(n, rng.Float64(), rng)
			for _, e := range po.Edges() {
				if e.V > e.U+1 {
					edges = append(edges, graph.Edge{U: e.U + 1, V: e.V + 1})
				}
			}
		} else {
			for i := rng.Intn(10); i > 0; i-- {
				a := rng.Intn(n + 1)
				edges = append(edges, graph.Edge{U: a, V: a + 1 + rng.Intn(n+1-a)})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		got, gotErr := ComputeIntervals(n, edges)
		want, wantErr := refComputeIntervals(n, edges)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("trial %d n=%d edges=%v: got %v, %v; want %v, %v", trial, n, edges, got, gotErr, want, wantErr)
		}
	}
}

// honestPOView builds the view of rank x in the PO graph given by edges.
func honestPOView(n, x int, edges []graph.Edge, ivs []Interval) PONodeView {
	v := PONodeView{N: n, Rank: x, I: ivs[x]}
	add := func(r int) {
		v.Neighbors = append(v.Neighbors, PONeighbor{Rank: r, I: ivs[r]})
	}
	if x > 1 {
		add(x - 1)
	}
	if x < n {
		add(x + 1)
	}
	for _, e := range edges {
		if e.U == x && e.V > x+1 {
			add(e.V)
		}
		if e.V == x && e.U < x-1 {
			add(e.U)
		}
	}
	return v
}

func TestVerifyPONodeCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		g := gen.RandomPathOuterplanar(n, rng.Float64(), rng)
		var chords []graph.Edge
		for _, e := range g.Edges() {
			if e.V-e.U > 1 {
				chords = append(chords, graph.NewEdge(e.U+1, e.V+1)) // to ranks
			}
		}
		ivs, err := ComputeIntervals(n, chords)
		if err != nil {
			t.Fatalf("trial %d: generator produced a crossing: %v", trial, err)
		}
		for x := 1; x <= n; x++ {
			if err := VerifyPONode(honestPOView(n, x, chords, ivs)); err != nil {
				t.Fatalf("trial %d: honest view rejected at %d: %v", trial, x, err)
			}
		}
	}
}

func TestVerifyPONodeRejectsForgeries(t *testing.T) {
	n := 8
	chords := []graph.Edge{{U: 1, V: 6}, {U: 2, V: 5}, {U: 6, V: 8}}
	ivs, err := ComputeIntervals(n, chords)
	if err != nil {
		t.Fatal(err)
	}
	base := func(x int) PONodeView { return honestPOView(n, x, chords, ivs) }

	t.Run("bad rank", func(t *testing.T) {
		v := base(3)
		v.Rank = 0
		if VerifyPONode(v) == nil {
			t.Fatal("accepted rank 0")
		}
	})
	t.Run("interval not covering", func(t *testing.T) {
		v := base(3)
		v.I = Interval{A: 4, B: 7}
		if VerifyPONode(v) == nil {
			t.Fatal("accepted non-covering interval")
		}
	})
	t.Run("boundary must be sentinel", func(t *testing.T) {
		v := base(1)
		v.I = Interval{A: 0, B: 5}
		if VerifyPONode(v) == nil {
			t.Fatal("accepted non-sentinel at rank 1")
		}
	})
	t.Run("missing path neighbor", func(t *testing.T) {
		v := base(4)
		var kept []PONeighbor
		for _, nb := range v.Neighbors {
			if nb.Rank != 5 {
				kept = append(kept, nb)
			}
		}
		v.Neighbors = kept
		if VerifyPONode(v) == nil {
			t.Fatal("accepted missing successor")
		}
	})
	t.Run("duplicate neighbor rank", func(t *testing.T) {
		v := base(4)
		v.Neighbors = append(v.Neighbors, v.Neighbors[0])
		if VerifyPONode(v) == nil {
			t.Fatal("accepted duplicate neighbor")
		}
	})
	t.Run("neighbor outside interval", func(t *testing.T) {
		v := base(3) // I(3) = [2,5]
		v.Neighbors = append(v.Neighbors, PONeighbor{Rank: 7, I: ivs[7]})
		if VerifyPONode(v) == nil {
			t.Fatal("accepted neighbor outside I(x)")
		}
	})
	t.Run("wrong chain interval", func(t *testing.T) {
		v := base(2) // right neighbors 3 and 5: I(3) must be [2,5]
		for i := range v.Neighbors {
			if v.Neighbors[i].Rank == 3 {
				v.Neighbors[i].I = Interval{A: 2, B: 4}
			}
		}
		if VerifyPONode(v) == nil {
			t.Fatal("accepted broken right chain")
		}
	})
	t.Run("anchored interval to non-neighbor", func(t *testing.T) {
		v := base(3)
		// Neighbor 4's interval claims edge {3, 7}; 7 is not adjacent to 3.
		for i := range v.Neighbors {
			if v.Neighbors[i].Rank == 4 {
				v.Neighbors[i].I = Interval{A: 3, B: 7}
			}
		}
		if VerifyPONode(v) == nil {
			t.Fatal("accepted anchored interval to non-neighbor")
		}
	})
}

func TestFindWitnessOnKnownGraphs(t *testing.T) {
	// A path plus nested chords has an obvious witness.
	g := gen.RandomPathOuterplanar(7, 0.9, rand.New(rand.NewSource(10)))
	ord, ok := FindWitness(g)
	if !ok {
		t.Fatal("no witness found for a PO graph")
	}
	if !ValidWitness(g, ord) {
		t.Fatal("FindWitness returned an invalid witness")
	}
	// K4 is Hamiltonian but not path-outerplanar.
	if _, ok := FindWitness(gen.Complete(4)); ok {
		t.Fatal("witness found for K4")
	}
	// Stars have no Hamiltonian path at all.
	if _, ok := FindWitness(gen.Star(5)); ok {
		t.Fatal("witness found for a star")
	}
	// Cycles are path-outerplanar (the wrap edge spans everything).
	if _, ok := FindWitness(gen.Cycle(6)); !ok {
		t.Fatal("no witness for a cycle")
	}
}

func TestValidWitnessRejects(t *testing.T) {
	g := gen.Path(4)
	if ValidWitness(g, []int{0, 1, 2}) {
		t.Fatal("short witness accepted")
	}
	if ValidWitness(g, []int{0, 2, 1, 3}) {
		t.Fatal("non-Hamiltonian-path order accepted")
	}
	if !ValidWitness(g, []int{0, 1, 2, 3}) {
		t.Fatal("identity witness rejected")
	}
	if !ValidWitness(g, []int{3, 2, 1, 0}) {
		t.Fatal("reversed witness rejected")
	}
}
