package dynamic

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

// TestPlanarStateMatchesTransform checks, on the core package's golden
// graphs, that the planarity state read off the decoded certificates is
// the prover's transform: F, Copies, Parent, Intervals and the cotree
// ranks.
func TestPlanarStateMatchesTransform(t *testing.T) {
	randomPlanar, err := gen.RandomPlanar(1000, 1800, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"stacked-2000", gen.StackedTriangulation(2000, rand.New(rand.NewSource(1)))},
		{"random-planar-1000", randomPlanar},
		{"wheel-1024", gen.Wheel(1024)},
		{"grid-40x50", gen.Grid(40, 50)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := core.TransformOf(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			_, certs, _, err := core.ProvePlanarFrom(tc.g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := (&Session{g: tc.g, certs: certs, active: core.PlanarScheme{}}).decodeState()
			if err != nil {
				t.Fatal(err)
			}
			p := st.(*planarState)
			if p.n2 != tr.N2 || !slices.Equal(p.f[1:], tr.F[1:]) {
				t.Fatal("f differs from the transform's F")
			}
			if !reflect.DeepEqual(p.copies, tr.Copies) {
				t.Fatal("copies differ from the transform's")
			}
			if !slices.Equal(p.parent, tr.Parent) {
				t.Fatal("parents differ from the transform's")
			}
			if !slices.Equal(p.iv, tr.Intervals) {
				t.Fatal("intervals differ from the transform's")
			}
			want := &planarState{byRank: make([][]graph.Edge, tr.N2+1)}
			for e, rr := range tr.CotreeRanks {
				if !tr.IsTree(e) {
					want.byRank[rr[0]] = append(want.byRank[rr[0]], tr.Edges[e])
					want.byRank[rr[1]] = append(want.byRank[rr[1]], tr.Edges[e])
				}
			}
			got, want := sortedChords(p).(*planarState), sortedChords(want).(*planarState)
			for r := range want.byRank {
				if !slices.Equal(got.byRank[r], want.byRank[r]) {
					t.Fatalf("chords at rank %d differ from the transform's cotree ranks", r)
				}
			}
		})
	}
}

// TestTreeRepairMatchesProver checks that the non-planarity state read
// off the decoded certificates holds the prover's witness and its BFS
// tree rooted at branch 0.
func TestTreeRepairMatchesProver(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := gen.PlantSubdivision(200, seed%2 == 0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := planarity.Kuratowski(g)
		if err != nil {
			t.Fatal(err)
		}
		_, certs, err := core.ProveNonPlanar(g)
		if err != nil {
			t.Fatal(err)
		}
		st, err := (&Session{g: g, certs: certs, active: core.NonPlanarScheme{}}).decodeState()
		if err != nil {
			t.Fatal(err)
		}
		ts := st.(*treeRepair)
		var witness []graph.Edge
		for _, e := range g.Edges() {
			if ts.inWitness(e.U, e.V) {
				witness = append(witness, e)
			}
		}
		if !slices.Equal(witness, w.Edges) {
			t.Fatalf("seed %d: witness read off the certificates %v, prover's %v", seed, witness, w.Edges)
		}
		tcs, err := pls.BuildTreeCerts(g, w.Branch[0])
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if *ts.tree[v] != *tcs[g.IDOf(v)] || g.IDOf(ts.parent[v]) != tcs[g.IDOf(v)].Parent {
				t.Fatalf("seed %d: node %d's tree differs from the prover's", seed, g.IDOf(v))
			}
		}
	}
}

// edgeStream is a seeded stream of one-edge batches over a fixed edge
// set: each batch removes a present edge or re-adds a removed one, with
// at most four missing at a time.
type edgeStream struct {
	rng     *rand.Rand
	base    [][2]graph.ID
	removed []int
}

func newEdgeStream(g *graph.Graph, seed int64) *edgeStream {
	st := &edgeStream{rng: rand.New(rand.NewSource(seed))}
	for _, e := range g.Edges() {
		st.base = append(st.base, [2]graph.ID{g.IDOf(e.U), g.IDOf(e.V)})
	}
	return st
}

func (st *edgeStream) next() []Update {
	if len(st.removed) >= 4 || (len(st.removed) > 0 && st.rng.Intn(2) == 0) {
		j := st.rng.Intn(len(st.removed))
		e := st.base[st.removed[j]]
		st.removed = slices.Delete(st.removed, j, j+1)
		return []Update{{Op: AddEdge, A: e[0], B: e[1]}}
	}
	i := st.rng.Intn(len(st.base))
	for slices.Contains(st.removed, i) {
		i = st.rng.Intn(len(st.base))
	}
	st.removed = append(st.removed, i)
	return []Update{{Op: RemoveEdge, A: st.base[i][0], B: st.base[i][1]}}
}

// isTreeEdge reports whether the edge pr is a spanning-tree edge of a
// planarity session's accepted assignment.
func isTreeEdge(t *testing.T, s *Session, pr [2]graph.ID) bool {
	t.Helper()
	st := s.state
	if _, ok := st.(*planarState); !ok {
		var err error
		if st, err = s.decodeState(); err != nil {
			t.Fatal(err)
		}
	}
	p := st.(*planarState)
	e, ok := p.idxPair(pr)
	return ok && (p.parent[e.U] == e.V || p.parent[e.V] == e.U)
}

// TestStateRebuiltFromCertificatesEqualsLive is the invariant that lets
// a cache adoption or a restore decode its repair state: after every
// batch of a seeded stream, the state rebuilt from the certificates
// equals the live, incrementally patched one. The planar stream runs at
// n=2000 and must splice a tree-edge removal; the churn stream adds one
// chord to a triangulation, so removing and re-adding that chord
// crosses planarity both ways, and tree-edge removals under the
// non-planarity scheme run surgery. The planar stream must also
// re-prove on a frontier smaller than n; the full verification after
// every batch checks that frontier's verdict.
func TestStateRebuiltFromCertificatesEqualsLive(t *testing.T) {
	churn := gen.StackedTriangulation(200, rand.New(rand.NewSource(3)))
	for u, v := 0, 1; ; v++ {
		if !churn.HasEdge(u, v) {
			churn.MustAddEdge(u, v)
			break
		}
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		cfg     Config
		batches int
		want    string // the scheme whose repairs must be exercised
		subset  bool   // whether a re-prove must verify a frontier only
	}{
		{"planar-2000", gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))), planarCfg(), 200, "planarity", true},
		{"nonplanar-churn", churn, Config{Scheme: core.NonPlanarScheme{}, Counterpart: core.PlanarScheme{}}, 400, "non-planarity", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := newEdgeStream(s.Graph(), 9)
			modes := map[Mode]int{}
			repairs, subsets, splices := 0, 0, 0
			for i := 0; i < tc.batches; i++ {
				batch := st.next()
				tree := tc.want == "planarity" && batch[0].Op == RemoveEdge &&
					isTreeEdge(t, s, normPair(batch[0].A, batch[0].B))
				rep, err := s.Apply(batch)
				if err != nil {
					t.Fatal(err)
				}
				modes[rep.Mode]++
				if tree && rep.Mode == ModeRepair {
					splices++
				}
				if rep.Mode == ModeRepair && rep.Dirty > 0 && rep.Scheme == tc.want {
					repairs++
				}
				if rep.Mode == ModeReprove && !rep.FullVerify && rep.Verified < s.Graph().N() {
					subsets++
				}
				if err := s.CheckRepairState(); err != nil {
					t.Fatalf("batch %d (%s): %v", i, rep.Mode, err)
				}
				if out := s.VerifyFull(); !out.AllAccept() {
					t.Fatalf("batch %d (%s): full verification rejected", i, rep.Mode)
				}
			}
			if repairs == 0 {
				t.Fatalf("no batch changed certificates by a %s repair: %v", tc.want, modes)
			}
			if tc.subset && subsets == 0 {
				t.Fatalf("no re-prove verified a frontier smaller than n: %v", modes)
			}
			if tc.want == "planarity" && splices == 0 {
				t.Fatalf("no tree-edge removal was spliced: %v", modes)
			}
		})
	}
}

// TestRestoredSurgeryRepairs restores a non-planarity session right
// after a tree surgery and removes a second tree edge inside the
// reshaped subtree. The restored session reads the reshaped tree off
// its certificates, so it absorbs the batch as a repair, with the same
// certificates as the session it was snapshotted from; a tree rebuilt
// by BFS would not match the certificates and the frontier would
// reject.
func TestRestoredSurgeryRepairs(t *testing.T) {
	cfg := Config{Scheme: core.NonPlanarScheme{}, Counterpart: core.PlanarScheme{}}
	for seed := int64(1); seed <= 20; seed++ {
		g, err := gen.PlantSubdivision(60, seed%2 == 0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range s.Graph().Edges() {
			before, err := s.decodeState()
			if err != nil {
				t.Fatal(err)
			}
			bt := before.(*treeRepair)
			if bt.parent[e.U] != e.V && bt.parent[e.V] != e.U || bt.inWitness(e.U, e.V) {
				continue
			}
			a, b := s.Graph().IDOf(e.U), s.Graph().IDOf(e.V)
			rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mode != ModeRepair || rep.Dirty == 0 {
				break // the host changed shape; try the next seed
			}
			after, err := s.decodeState()
			if err != nil {
				t.Fatal(err)
			}
			at := after.(*treeRepair)
			// A tree edge with both ends in the moved subtree, which
			// surgery left at new depths.
			second := [2]graph.ID{}
			for v, par := range at.parent {
				if at.tree[v].Dist != bt.tree[v].Dist && at.tree[par].Dist != bt.tree[par].Dist && !at.inWitness(v, par) {
					second = [2]graph.ID{s.Graph().IDOf(v), s.Graph().IDOf(par)}
					break
				}
			}
			if second == [2]graph.ID{} {
				break
			}
			r, err := Restore(s.Graph().Clone(), cfg, s.ActiveScheme(), slices.Clone(s.Certificates()), s.Generation())
			if err != nil {
				t.Fatal(err)
			}
			batch := []Update{{Op: RemoveEdge, A: second[0], B: second[1]}}
			want, err := s.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode != ModeRepair || got.Dirty == 0 {
				t.Fatalf("seed %d: restored session absorbed the second surgery as %s (%s)", seed, got.Mode, got.RepairFallback)
			}
			if want.Mode != got.Mode || !reflect.DeepEqual(s.Certificates(), r.Certificates()) {
				t.Fatalf("seed %d: restored session diverged from the original (%s vs %s)", seed, got.Mode, want.Mode)
			}
			if out := r.VerifyFull(); !out.AllAccept() {
				t.Fatalf("seed %d: restored session's repair rejected", seed)
			}
			return
		}
	}
	t.Fatal("no seed produced a surgery followed by a second tree edge in the reshaped subtree")
}

// TestCommonFaceMatchesReference pins the in-place face-chain scan of
// commonFace to the set-based form it replaced (every face bordering b
// that contains [a, b] into a set, then the innermost face of a's chain
// in it), on rank pairs of a session patched by a seeded stream.
func TestCommonFaceMatchesReference(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(300, rand.New(rand.NewSource(4))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	st := newEdgeStream(s.Graph(), 3)
	for i := 0; i < 40; i++ {
		if _, err := s.Apply(st.next()); err != nil {
			t.Fatal(err)
		}
	}
	if s.state == nil {
		if s.state, err = s.decodeState(); err != nil {
			t.Fatal(err)
		}
	}
	p := s.state.(*planarState)
	facesOf := func(x int) []core.Interval {
		out := []core.Interval{p.iv[x]}
		for _, ge := range p.byRank[x] {
			if c, ok := p.chordOf(ge); ok {
				out = append(out, c)
			}
		}
		return out
	}
	reference := func(a, b int) (core.Interval, bool) {
		fb := make(map[core.Interval]bool)
		for _, f := range facesOf(b) {
			if f.A <= a && f.B >= b {
				fb[f] = true
			}
		}
		best, found := core.Interval{}, false
		for _, f := range facesOf(a) {
			if f.A > a || f.B < b || !fb[f] {
				continue
			}
			if !found || f.A > best.A || (f.A == best.A && f.B < best.B) {
				best, found = f, true
			}
		}
		return best, found
	}
	hits := 0
	for a := 1; a <= p.n2; a++ {
		for b := a + 2; b <= p.n2; b += 1 + b%7 {
			want, wok := reference(a, b)
			got, ok := p.commonFace(a, b)
			if got != want || ok != wok {
				t.Fatalf("commonFace(%d, %d) = %v, %v; reference %v, %v", a, b, got, ok, want, wok)
			}
			if ok {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no rank pair shares a face")
	}
}
