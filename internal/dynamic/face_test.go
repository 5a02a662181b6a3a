package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// chordsOf returns the chord of every cotree certificate of the state.
func chordsOf(p *planarState) []core.Interval {
	var out []core.Interval
	for v := range p.objs {
		for _, ec := range p.objs[v].Edges {
			if !ec.IsTree {
				a, b := int(ec.Rank[0]), int(ec.Rank[1])
				out = append(out, core.Interval{A: min(a, b), B: max(a, b)})
			}
		}
	}
	return out
}

// checkFaceWalk requires faceUnder to visit, for every chord c = [a, b]
// of the state, exactly the ranks the scan it replaced patched: the x in
// (a, b) with I(x) = c, in ascending order. It returns how many face
// ranks join two sibling chords [a', y] and [y, b'] under c, where the
// walk jumps twice in a row.
func checkFaceWalk(t *testing.T, p *planarState) (siblings int) {
	t.Helper()
	under := make(map[core.Interval][]int)
	for x := 1; x <= p.n2; x++ {
		under[p.iv[x]] = append(under[p.iv[x]], x)
	}
	for _, c := range chordsOf(p) {
		var want []int
		for _, x := range under[c] {
			if x > c.A && x < c.B {
				want = append(want, x)
			}
		}
		p.faceUnder(c.A, c.B)
		if !slices.Equal(p.face, want) {
			t.Fatalf("chord %v: the walk visits %v, the scan finds %v", c, p.face, want)
		}
		for _, y := range p.face {
			in, out := false, false
			for _, ge := range p.byRank[y] {
				d, _ := p.chordOf(ge)
				in = in || (d.B == y && d.A >= c.A)
				out = out || (d.A == y && d.B <= c.B)
			}
			if in && out {
				siblings++
			}
		}
	}
	return siblings
}

// TestFaceWalkMatchesScan pins the face walk of attachChord and
// detachChord to the O(width) scan it replaced, on every chord of the
// state after every batch of a remove/re-add stream, on a stacked
// triangulation and on a grid.
func TestFaceWalkMatchesScan(t *testing.T) {
	cases := map[string]*graph.Graph{
		"stacked-2000": gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))),
		"grid-30x40":   gen.Grid(30, 40),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(g, planarCfg())
			if err != nil {
				t.Fatal(err)
			}
			st := newEdgeStream(s.Graph(), 5)
			siblings, repairs := 0, 0
			for b := 0; b <= 150; b++ {
				if b > 0 {
					rep, err := s.Apply(st.next())
					if err != nil {
						t.Fatal(err)
					}
					if !s.Certified() {
						continue // a grid corner cut off
					}
					if rep.Mode == ModeRepair {
						repairs++
					}
				}
				if s.state == nil {
					if s.state, err = s.decodeState(); err != nil {
						t.Fatal(err)
					}
				}
				siblings += checkFaceWalk(t, s.state.(*planarState))
			}
			if repairs == 0 {
				t.Fatal("no batch was repaired")
			}
			if siblings == 0 {
				t.Fatal("no face rank joins two sibling chords")
			}
		})
	}
}

// TestWideChordRepairs removes and re-adds a cotree edge whose chord is
// wider than DefaultRepairThreshold but whose face is small. The repair
// budget counts the face, not the width, so both batches are repairs.
func TestWideChordRepairs(t *testing.T) {
	cfg := planarCfg()
	cfg.CacheSize = -1 // the re-add restores the first topology
	s, err := NewSession(gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := s.state.(*planarState)
	var pr [2]graph.ID
	found := false
	for v := 0; v < len(p.objs) && !found; v++ {
		for _, ec := range p.objs[v].Edges {
			a, b := int(min(ec.Rank[0], ec.Rank[1])), int(max(ec.Rank[0], ec.Rank[1]))
			if !ec.IsTree && b-a+1 > DefaultRepairThreshold && p.faceUnder(a, b) <= 64 {
				pr, found = normPair(ec.U, ec.V), true
				break
			}
		}
	}
	if !found {
		t.Fatal("no chord wider than the threshold over a small face")
	}
	for _, u := range []Update{{Op: RemoveEdge, A: pr[0], B: pr[1]}, {Op: AddEdge, A: pr[0], B: pr[1]}} {
		rep, err := s.Apply([]Update{u})
		if err != nil || rep.Mode != ModeRepair || !rep.Accepted {
			t.Fatalf("%v: %+v, %v", u, rep, err)
		}
		if err := s.CheckRepairState(); err != nil {
			t.Fatalf("%v: %v", u, err)
		}
		if !s.VerifyFull().AllAccept() {
			t.Fatalf("%v: a full sweep rejects the repaired assignment", u)
		}
	}
}
