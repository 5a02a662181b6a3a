package dynamic

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// forkSession returns a fresh session on a copy of s's graph holding
// s's accepted assignment, with no repair state, as after a Restore but
// without its sweep.
func forkSession(t *testing.T, s *Session) *Session {
	t.Helper()
	f, err := newSessionShell(s.g.Clone(), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	f.certs, f.certsOwn, f.certified = slices.Clone(s.certs), true, true
	return f
}

// treeEdges lists the tree edges {parent(c), c} of a planarity
// session's state whose removal leaves the graph connected, by child c.
func treeEdges(t *testing.T, s *Session) []graph.Edge {
	t.Helper()
	st, err := s.decodeState()
	if err != nil {
		t.Fatal(err)
	}
	p := st.(*planarState)
	var out []graph.Edge
	for c, par := range p.parent {
		if c == par {
			continue
		}
		h := s.g.Clone()
		h.RemoveEdge(c, par)
		if h.Connected() {
			out = append(out, graph.Edge{U: par, V: c})
		}
	}
	return out
}

// removeTreeEdge removes the tree edge e = {parent(c), c} from a fork
// of base and checks the batch: a splice within the repair scope is
// absorbed as a repair whose frontier is that of the changed
// certificates, and the state rebuilt from the certificates equals the
// live one; every result verifies in a full sweep. A splice out of scope
// (over the threshold or more than n/2 nodes dirtied) is also run
// directly on the state, without a threshold, and must verify too. It
// returns the splice planned for e and the batch's report.
func removeTreeEdge(t *testing.T, base *Session, e graph.Edge) (splice, *Report) {
	t.Helper()
	s := forkSession(t, base)
	st, err := s.decodeState()
	if err != nil {
		t.Fatal(err)
	}
	s.state = st
	sp, ok := st.(*planarState).planSplice(e.U, e.V)
	if !ok {
		t.Fatalf("no splice for the non-bridge tree edge %v", e)
	}
	before := slices.Clone(s.certs)
	a, b := s.g.IDOf(e.U), s.g.IDOf(e.V)
	rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	if out := s.VerifyFull(); !out.AllAccept() || !rep.Accepted {
		id, reason, _ := out.FirstRejection()
		t.Fatalf("removing %v (%s, %s): node %d rejects: %s", e, rep.Mode, rep.RepairFallback, id, reason)
	}
	if rep.Mode != ModeRepair {
		if !strings.Contains(rep.RepairFallback, "exceeds repair threshold") && !strings.Contains(rep.RepairFallback, "dirties") {
			t.Fatalf("removing %v fell back: %s", e, rep.RepairFallback)
		}
		spliceUnbounded(t, base, e)
		return sp, rep
	}
	changed := changedIdxs(before, s.certs)
	if rep.Dirty != len(changed) {
		t.Fatalf("removing %v: %d certificates re-encoded, %d changed", e, rep.Dirty, len(changed))
	}
	if want := s.frontierOf(changed, []int{e.U, e.V}); rep.Verified != len(want) {
		t.Fatalf("removing %v: %d nodes verified, the frontier of the changed certificates has %d", e, rep.Verified, len(want))
	}
	if err := s.CheckRepairState(); err != nil {
		t.Fatalf("removing %v: %v", e, err)
	}
	return sp, rep
}

// spliceUnbounded splices the removal of e on a fork of base with no
// threshold and without the n/2 rule, installs the re-encoded
// certificates, and checks that they verify and that the state rebuilt
// from them equals the spliced one.
func spliceUnbounded(t *testing.T, base *Session, e graph.Edge) {
	t.Helper()
	s := forkSession(t, base)
	st, err := s.decodeState()
	if err != nil {
		t.Fatal(err)
	}
	p := st.(*planarState)
	s.g.RemoveEdge(e.U, e.V)
	budget, dirty := p.n2, map[int]bool{}
	if ok, reason := p.spliceTree(e.U, e.V, &budget, dirty); !ok && !strings.Contains(reason, "dirties") {
		t.Fatalf("splicing %v: %s", e, reason)
	}
	for v := range dirty {
		var w bits.Writer
		if err := p.objs[v].Encode(&w); err != nil {
			t.Fatal(err)
		}
		s.certs[v] = bits.FromWriter(&w)
	}
	s.state = p
	if out := s.VerifyFull(); !out.AllAccept() {
		id, reason, _ := out.FirstRejection()
		t.Fatalf("unbounded splice of %v: node %d rejects: %s", e, id, reason)
	}
	if err := s.CheckRepairState(); err != nil {
		t.Fatalf("unbounded splice of %v: %v", e, err)
	}
}

// hubWheel is gen.Wheel with the hub at index 0, where the prover's DFS
// starts, so the subtrees below the hub are large.
func hubWheel(n int) *graph.Graph {
	g := graph.NewWithNodes(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
		g.MustAddEdge(i, i%(n-1)+1)
	}
	return g
}

// TestTreeEdgeSplice removes tree edges one at a time, each on a fresh
// session, from four graph families: a stacked triangulation, a grid, a
// wheel and a random planar graph. Every removal within the repair
// scope is a repair; the forced cases a leaf c, a re-rooted subtree
// (x != c), y = parent(c) at its merged corner and x's corner at a
// middle copy of c must each occur. No wheel removal is in scope: the
// tree is the rim path below the hub, and the only cotree edges leaving
// a cut-off tail end at the hub's two copies or at the first rim node's
// last copy, the ends of the tour, so a splice renumbers nearly every
// rank and dirties every node. Each of those splices must still verify
// when run without the limits.
func TestTreeEdgeSplice(t *testing.T) {
	randomPlanar, err := gen.RandomPlanar(1000, 1800, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	forced := map[string]int{}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		max     int // removals tried
		repairs int // the fewest that must splice
	}{
		{"stacked-2000", gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))), 300, 250},
		{"grid-40x50", gen.Grid(40, 50), 100, 30},
		{"wheel-1024", hubWheel(1024), 40, 0},
		{"random-planar-1000", randomPlanar, 100, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := NewSession(tc.g, planarCfg())
			if err != nil {
				t.Fatal(err)
			}
			edges := treeEdges(t, base)
			rand.New(rand.NewSource(7)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			edges = edges[:min(tc.max, len(edges))]
			repairs := 0
			for _, e := range edges {
				sp, rep := removeTreeEdge(t, base, e)
				if rep.Mode != ModeRepair {
					continue
				}
				repairs++
				if sp.l == 0 {
					forced["leaf"]++
				}
				if sp.x != sp.c {
					forced["re-rooted"]++
				}
				if sp.bi == sp.pa {
					forced["y = parent"]++
				}
				if sp.x == sp.c && sp.a != sp.cMin && sp.a != sp.cMax {
					forced["middle copy"]++
				}
			}
			t.Logf("%d of %d removals spliced", repairs, len(edges))
			if repairs < tc.repairs {
				t.Fatalf("%d of %d tree-edge removals spliced, want at least %d", repairs, len(edges), tc.repairs)
			}
		})
	}
	t.Logf("forced cases: %v", forced)
	for _, k := range []string{"leaf", "re-rooted", "y = parent", "middle copy"} {
		if forced[k] == 0 {
			t.Errorf("no splice of the forced case %q", k)
		}
	}
}

// TestSpliceBatches absorbs seeded batches of one to three updates,
// each removing a triangulation, grid or random planar edge that is not
// a bridge of what is left, or re-adding a removed one, so a batch can
// splice twice, splice and patch chords, or promote an edge that a later
// removal of the same batch takes out again. After every batch the
// whole network verifies and the state rebuilt from the certificates
// equals the live one; some batches of several updates must splice.
func TestSpliceBatches(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.Grid(15, 20)
		switch seed {
		case 2:
			g = gen.StackedTriangulation(400, rng)
		case 3:
			var err error
			if g, err = gen.RandomPlanar(300, 550, rng); err != nil {
				t.Fatal(err)
			}
		}
		base := g.Edges()
		s, err := NewSession(g, planarCfg())
		if err != nil {
			t.Fatal(err)
		}
		out := map[graph.Edge]bool{}
		multi := 0
		for b := 0; b < 150; b++ {
			var batch []Update
			h := s.g.Clone()
			splices := 0
			for j := 1 + rng.Intn(3); j > 0; j-- {
				e := base[rng.Intn(len(base))]
				a, c := s.g.IDOf(e.U), s.g.IDOf(e.V)
				switch {
				case slices.ContainsFunc(batch, func(u Update) bool { return normPair(u.A, u.B) == normPair(a, c) }):
				case out[e]:
					batch = append(batch, Update{Op: AddEdge, A: a, B: c})
					delete(out, e)
				case h.RemoveEdge(e.U, e.V) && !h.Connected():
					h.MustAddEdge(e.U, e.V)
				default:
					if isTreeEdge(t, s, normPair(a, c)) {
						splices++
					}
					batch = append(batch, Update{Op: RemoveEdge, A: a, B: c})
					out[e] = true
				}
			}
			if len(batch) == 0 {
				continue
			}
			rep, err := s.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if out := s.VerifyFull(); !out.AllAccept() || !rep.Accepted {
				t.Fatalf("seed %d, batch %d %v (%s, %s): full verification rejected", seed, b, batch, rep.Mode, rep.RepairFallback)
			}
			if err := s.CheckRepairState(); err != nil {
				t.Fatalf("seed %d, batch %d %v (%s): %v", seed, b, batch, rep.Mode, err)
			}
			if rep.Mode == ModeRepair && splices > 0 && len(batch) > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Fatalf("seed %d: no batch of several updates spliced", seed)
		}
	}
}
