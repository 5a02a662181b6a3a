package dynamic

import (
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/planarity"
	"github.com/planarcert/planarcert/internal/pls"
)

func planarCfg() Config {
	return Config{Scheme: core.PlanarScheme{}, Counterpart: core.NonPlanarScheme{}}
}

// checkParity asserts the acceptance criterion: after any update
// sequence, the session's state verifies exactly like a fresh
// Certify+Verify of the same graph under the appropriate scheme.
func checkParity(t *testing.T, s *Session) {
	t.Helper()
	g := s.Graph()
	if g.N() == 0 || !g.Connected() {
		if s.Certified() {
			t.Fatalf("gen %d: certified on an uncertifiable graph (n=%d, connected=%v)",
				s.Generation(), g.N(), g.Connected())
		}
		return
	}
	planar := planarity.IsPlanar(g)
	if !s.Certified() {
		t.Fatalf("gen %d: uncertified on a connected graph (planar=%v): %+v",
			s.Generation(), planar, s.Last())
	}
	wantScheme := "planarity"
	if !planar {
		wantScheme = "non-planarity"
	}
	if got := s.ActiveScheme().Name(); got != wantScheme {
		t.Fatalf("gen %d: active scheme %s, want %s", s.Generation(), got, wantScheme)
	}
	if out := s.VerifyFull(); !out.AllAccept() {
		id, reason, _ := out.FirstRejection()
		t.Fatalf("gen %d (%s): session state rejected at node %d: %s",
			s.Generation(), s.Last().Mode, id, reason)
	}
	fresh, err := pls.Run(s.ActiveScheme(), g.Clone())
	if err != nil {
		t.Fatalf("gen %d: fresh prover failed: %v", s.Generation(), err)
	}
	if !fresh.AllAccept() {
		t.Fatalf("gen %d: fresh certification rejected", s.Generation())
	}
}

// TestChordOscillation removes and re-adds cotree edges of a planar
// triangulation and checks that the session absorbs them as localized
// repairs with full parity.
func TestChordOscillation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := gen.StackedTriangulation(120, rng)
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Certified() {
		t.Fatalf("initial certification failed: %+v", s.Last())
	}
	repairs := 0
	for _, e := range s.Graph().Edges() {
		a, b := s.Graph().IDOf(e.U), s.Graph().IDOf(e.V)
		rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, s)
		if rep.Mode == ModeRepair {
			repairs++
		}
		rep2, err := s.Apply([]Update{{Op: AddEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, s)
		if rep.Mode == ModeRepair && rep2.Mode != ModeRepair && rep2.Mode != ModeCache {
			t.Fatalf("re-adding a repaired edge fell back to %s (%s)", rep2.Mode, rep2.RepairFallback)
		}
		if repairs > 25 {
			break
		}
	}
	if repairs < 5 {
		t.Fatalf("only %d chord removals were absorbed as repairs", repairs)
	}
}

// TestChordRepairIsLocal asserts the steady-state promise: a chord
// oscillation far from most of the graph re-verifies a frontier much
// smaller than n.
func TestChordRepairIsLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.StackedTriangulation(400, rng)
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	smallest := s.Graph().N()
	for _, e := range s.Graph().Edges() {
		a, b := s.Graph().IDOf(e.U), s.Graph().IDOf(e.V)
		rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode == ModeRepair && rep.Verified < smallest {
			smallest = rep.Verified
		}
		if _, err := s.Apply([]Update{{Op: AddEdge, A: a, B: b}}); err != nil {
			t.Fatal(err)
		}
		if smallest < 40 {
			break
		}
	}
	if smallest >= s.Graph().N()/2 {
		t.Fatalf("no repair verified fewer than n/2 nodes (best %d of %d)", smallest, s.Graph().N())
	}
	checkParity(t, s)
}

// TestTreeSurgery removes spanning-tree edges under the spanning-tree
// scheme and checks the surgery path keeps certificates valid.
func TestTreeSurgery(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := gen.RandomPlanar(80, 140, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The cache is disabled so every fallback re-proves rather than
	// adopting an earlier assignment.
	s, err := NewSession(g, Config{Scheme: pls.SpanningTreeScheme{}, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Certified() {
		t.Fatalf("initial certification failed: %+v", s.Last())
	}
	surgeries, noops := 0, 0
	for _, e := range s.Graph().Edges() {
		if surgeries >= 10 && noops >= 10 {
			break
		}
		u, v := e.U, e.V
		st, err := s.decodeState()
		if err != nil {
			t.Fatal(err)
		}
		ts := st.(*treeRepair)
		isTree := ts.parent[u] == v || ts.parent[v] == u
		a, b := s.Graph().IDOf(u), s.Graph().IDOf(v)
		rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Graph().Connected() {
			if s.Certified() {
				t.Fatal("certified a disconnected graph")
			}
		} else {
			if !s.Certified() {
				t.Fatalf("lost certification removing {%d,%d}: %+v", a, b, rep)
			}
			if out := s.VerifyFull(); !out.AllAccept() {
				t.Fatalf("full verify rejected after removing {%d,%d} (mode %s): %v",
					a, b, rep.Mode, out.Reasons)
			}
			if rep.Mode == ModeRepair {
				if isTree && rep.Dirty > 0 {
					surgeries++
				}
				if !isTree {
					if rep.Dirty != 0 {
						t.Fatalf("cotree removal dirtied %d certificates", rep.Dirty)
					}
					noops++
				}
			}
		}
		if _, err := s.Apply([]Update{{Op: AddEdge, A: a, B: b}}); err != nil {
			t.Fatal(err)
		}
		if out := s.VerifyFull(); s.Certified() && !out.AllAccept() {
			t.Fatalf("full verify rejected after re-adding {%d,%d}: %v", a, b, out.Reasons)
		}
	}
	if surgeries == 0 {
		t.Fatal("no tree-edge removal exercised surgery")
	}
	if noops == 0 {
		t.Fatal("no cotree removal exercised the zero-dirty path")
	}
}

// TestNestedTreeEdgeRemovals removes, in one batch, a tree edge {p, c}
// and a tree edge {c, d} below it. The graph already lacks {c, d} when
// the first surgery runs, yet d's subtree still hangs below c and must
// move with it; hanging c's subtree under one of d's descendants would
// close a parent cycle. The tree is the path r-p-c-d-e with cotree
// edges c-e and e-r, installed by Restore; under the non-planarity
// scheme the path hangs off a K5.
func TestNestedTreeEdgeRemovals(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		k5   bool
	}{
		{"spanning-tree", Config{Scheme: pls.SpanningTreeScheme{}}, false},
		{"non-planarity", Config{Scheme: core.NonPlanarScheme{}, Counterpart: core.PlanarScheme{}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Path nodes r, p, c, d, e are indices 0, off+1, ..., off+4.
			off := 0
			if tc.k5 {
				off = 4
			}
			g := graph.NewWithNodes(off + 5)
			if tc.k5 {
				for u := 0; u < 5; u++ {
					for v := u + 1; v < 5; v++ {
						g.MustAddEdge(u, v)
					}
				}
			}
			r, p, c, d, e := 0, off+1, off+2, off+3, off+4
			for _, uv := range [][2]int{{r, p}, {p, c}, {c, d}, {d, e}, {c, e}, {e, r}} {
				g.MustAddEdge(uv[0], uv[1])
			}
			var tree func(v int) *pls.TreeCert
			var objs []interface{ Encode(*bits.Writer) error }
			if tc.k5 {
				np, err := core.BuildNonPlanarProof(g)
				if err != nil {
					t.Fatal(err)
				}
				tree = func(v int) *pls.TreeCert { return &np[v].Tree }
				for v := range np {
					objs = append(objs, &np[v])
				}
			} else {
				tcs := make([]pls.TreeCert, g.N())
				tree = func(v int) *pls.TreeCert { return &tcs[v] }
				for v := range tcs {
					tcs[v] = pls.TreeCert{SelfID: g.IDOf(v), RootID: g.IDOf(r), N: uint64(g.N()), Parent: g.IDOf(r)}
					objs = append(objs, &tcs[v])
				}
			}
			parent := make([]int, g.N())
			for v := range parent {
				parent[v], _ = g.IndexOf(tree(v).Parent)
			}
			parent[p], parent[c], parent[d], parent[e] = r, p, c, d
			for v := range parent {
				tv := tree(v)
				tv.Parent, tv.Dist, tv.Size = g.IDOf(parent[v]), 0, 0
			}
			for v := range parent {
				for z := v; ; z = parent[z] {
					tree(z).Size++
					if parent[z] == z {
						break
					}
					tree(v).Dist++
				}
			}
			certs := make(map[graph.ID]bits.Certificate, g.N())
			for v, o := range objs {
				var w bits.Writer
				if err := o.Encode(&w); err != nil {
					t.Fatal(err)
				}
				certs[g.IDOf(v)] = bits.FromWriter(&w)
			}
			s, err := Restore(g, tc.cfg, tc.cfg.Scheme, certs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s.Last().Mode != ModeRestore {
				t.Fatalf("crafted assignment not restored: %+v", s.Last())
			}
			rep, err := s.Apply([]Update{
				{Op: RemoveEdge, A: g.IDOf(p), B: g.IDOf(c)},
				{Op: RemoveEdge, A: g.IDOf(c), B: g.IDOf(d)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mode != ModeRepair || !rep.Accepted {
				t.Fatalf("nested tree-edge removals absorbed as %s (%s)", rep.Mode, rep.RepairFallback)
			}
			if out := s.VerifyFull(); !out.AllAccept() {
				t.Fatalf("full verify rejected: %v", out.Reasons)
			}
			if err := s.CheckRepairState(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlanarityFlip grows a planar graph into K5 and back, checking the
// scheme flips both ways.
func TestPlanarityFlip(t *testing.T) {
	g := graph.NewWithNodes(5)
	var edges [][2]graph.ID
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, [2]graph.ID{graph.ID(a), graph.ID(b)})
		}
	}
	// Start with K5 minus one edge (planar).
	for _, e := range edges[:len(edges)-1] {
		ia, _ := g.IndexOf(e[0])
		ib, _ := g.IndexOf(e[1])
		g.MustAddEdge(ia, ib)
	}
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveScheme().Name(); got != "planarity" || !s.Certified() {
		t.Fatalf("initial state: scheme %s certified %v", got, s.Certified())
	}
	last := edges[len(edges)-1]
	rep, err := s.Apply([]Update{{Op: AddEdge, A: last[0], B: last[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeFlip || s.ActiveScheme().Name() != "non-planarity" || !rep.Accepted || !rep.FullVerify {
		t.Fatalf("completing K5 did not flip with a full sweep: %+v", rep)
	}
	checkParity(t, s)
	rep, err = s.Apply([]Update{{Op: RemoveEdge, A: last[0], B: last[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveScheme().Name() != "planarity" || !rep.Accepted {
		t.Fatalf("removing the K5 edge did not flip back: %+v", rep)
	}
	if rep.Mode != ModeCache {
		t.Fatalf("flip back should have hit the certificate cache, got %s", rep.Mode)
	}
	if rep.CacheGeneration != 0 {
		t.Fatalf("cache entry stamped at generation %d, want 0", rep.CacheGeneration)
	}
	checkParity(t, s)
	// Oscillate once more: both directions are now cached.
	rep, err = s.Apply([]Update{{Op: AddEdge, A: last[0], B: last[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeCache || s.ActiveScheme().Name() != "non-planarity" {
		t.Fatalf("second flip missed the cache: %+v", rep)
	}
	checkParity(t, s)
}

// TestNonPlanarRepair checks the Kuratowski-witness scheme absorbs
// additions and witness-avoiding removals without re-proving.
func TestNonPlanarRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := gen.PlantSubdivision(60, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, Config{Scheme: core.NonPlanarScheme{}, Counterpart: core.PlanarScheme{}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Certified() || s.ActiveScheme().Name() != "non-planarity" {
		t.Fatalf("initial certification failed: %+v", s.Last())
	}
	// Add a fresh edge: always witness-preserving.
	var a, b graph.ID
	found := false
	for x := 0; x < g.N() && !found; x++ {
		for y := x + 1; y < g.N(); y++ {
			if !g.HasEdge(x, y) {
				a, b = g.IDOf(x), g.IDOf(y)
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("graph is complete")
	}
	rep, err := s.Apply([]Update{{Op: AddEdge, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeRepair || rep.Dirty != 0 {
		t.Fatalf("witness-preserving addition not absorbed as a zero-dirty repair: %+v", rep)
	}
	if out := s.VerifyFull(); !out.AllAccept() {
		t.Fatalf("full verify rejected: %v", out.Reasons)
	}
	checkParityNonPlanar(t, s)
}

func checkParityNonPlanar(t *testing.T, s *Session) {
	t.Helper()
	if planarity.IsPlanar(s.Graph()) {
		t.Fatal("test graph unexpectedly planar")
	}
	if out := s.VerifyFull(); !out.AllAccept() {
		t.Fatalf("session state rejected: %v", out.Reasons)
	}
}

// TestRandomStreamParity is the determinism-parity property test over
// random update streams crossing the planar/non-planar boundary.
func TestRandomStreamParity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g, err := gen.RandomPlanar(36, 62, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, planarCfg())
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, s)
		for step := 0; step < 60; step++ {
			batchLen := 1 + rng.Intn(3)
			var batch []Update
			for k := 0; k < batchLen; k++ {
				x := rng.Intn(s.Graph().N())
				y := rng.Intn(s.Graph().N())
				if x == y {
					continue
				}
				a, b := s.Graph().IDOf(x), s.Graph().IDOf(y)
				if s.Graph().HasEdge(x, y) {
					batch = append(batch, Update{Op: RemoveEdge, A: a, B: b})
				} else {
					batch = append(batch, Update{Op: AddEdge, A: a, B: b})
				}
			}
			if len(batch) == 0 {
				continue
			}
			if _, err := s.Apply(batch); err != nil {
				// In-batch duplicates (same pair picked twice) are
				// rejected wholesale; that path is exercised too.
				continue
			}
			checkParity(t, s)
		}
	}
}

// TestNodeAdditions batches node+edge growth and checks it re-proves.
func TestNodeAdditions(t *testing.T) {
	g := gen.Cycle(6)
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply([]Update{
		{Op: AddNode, A: 100},
		{Op: AddEdge, A: 100, B: 0},
		{Op: AddEdge, A: 100, B: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeReprove || !rep.Accepted {
		t.Fatalf("node growth batch: %+v", rep)
	}
	if s.Graph().N() != 7 || s.Graph().M() != 8 {
		t.Fatalf("graph is n=%d m=%d", s.Graph().N(), s.Graph().M())
	}
	checkParity(t, s)
	// An isolated node disconnects the graph: uncertified until linked.
	rep, err = s.Apply([]Update{{Op: AddNode, A: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeUncertified || rep.Accepted || rep.ProveErr == nil {
		t.Fatalf("isolated node: %+v", rep)
	}
	rep, err = s.Apply([]Update{{Op: AddEdge, A: 200, B: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("reconnecting failed: %+v", rep)
	}
	checkParity(t, s)
}

// TestReproveTraceSteps checks that a traced planarity re-prove records
// its six steps, in order, as the only children of the prove span, and
// that Phases still books the whole prove span (steps included) once.
// A leaf attach and a tree-edge removal keep the certified embedding:
// the read of the rotation stands in for the LR test. A batch that adds
// an edge between two existing nodes runs the LR test. The prove span's
// changed attribute is the report's Dirty; the leaf attach, which adds
// a node, changes every certificate and runs the full sweep.
func TestReproveTraceSteps(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(60, rand.New(rand.NewSource(2))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	treeEdge := func(skip [2]graph.ID) [2]graph.ID {
		p := s.state.(*planarState)
		for v, par := range p.parent {
			e := normPair(s.g.IDOf(v), s.g.IDOf(par))
			if v != par && s.g.Degree(v) > 1 && e != skip {
				return e
			}
		}
		t.Fatal("no tree edge")
		return [2]graph.ID{}
	}
	var first [2]graph.ID
	for _, tc := range []struct {
		name      string
		batch     func() []Update
		embedding string
		lr        string // the first step
		full      bool   // whether the sweep must be full
	}{
		{"leaf attach", func() []Update {
			return []Update{{Op: AddNode, A: 1000}, {Op: AddEdge, A: 1000, B: 0}}
		}, "kept", obs.SpanRotation, true},
		{"tree-edge removal", func() []Update {
			first = treeEdge([2]graph.ID{})
			return []Update{{Op: RemoveEdge, A: first[0], B: first[1]}}
		}, "kept", obs.SpanRotation, false},
		{"edge between existing nodes", func() []Update {
			e := treeEdge(first)
			return []Update{{Op: RemoveEdge, A: e[0], B: e[1]}, {Op: AddEdge, A: first[0], B: first[1]}}
		}, "lr", obs.SpanLRCheck, false},
	} {
		root := obs.New(obs.Config{}).Start("s", obs.SpanBatch)
		s.TraceNext(root)
		rep, err := s.Apply(tc.batch())
		if err != nil || rep.Mode != ModeReprove || !rep.Accepted {
			t.Fatalf("%s: %+v, %v", tc.name, rep, err)
		}
		root.End()
		var prove *obs.Span
		for _, c := range root.Children() {
			if c.Name() == obs.SpanProve {
				prove = c
			}
		}
		if prove == nil {
			t.Fatalf("%s: no prove span", tc.name)
		}
		if got, _ := prove.StrAttr("embedding"); got != tc.embedding {
			t.Fatalf("%s: embedding %q, want %q", tc.name, got, tc.embedding)
		}
		if got, _ := prove.IntAttr("changed"); got != int64(rep.Dirty) {
			t.Fatalf("%s: prove span changed=%d, report Dirty=%d", tc.name, got, rep.Dirty)
		}
		if tc.full && (!rep.FullVerify || rep.Dirty != s.g.N() || rep.Verified != s.g.N()) {
			t.Fatalf("%s: want a full sweep over n=%d, got %+v", tc.name, s.g.N(), rep)
		}
		want := []string{tc.lr, obs.SpanEulerAudit, obs.SpanTransform,
			obs.SpanCertObjects, obs.SpanEncode, obs.SpanRepairState}
		var got []string
		var sum time.Duration
		for _, c := range prove.Children() {
			got = append(got, c.Name())
			sum += c.Duration()
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: prove children = %v, want %v", tc.name, got, want)
		}
		if sum > prove.Duration() {
			t.Fatalf("%s: steps add up to %v, more than the prove span's %v", tc.name, sum, prove.Duration())
		}
		if ph := obs.Phases(root); ph[obs.PhaseProve] != prove.Duration() {
			t.Fatalf("%s: Phases books %v as prove, span lasted %v", tc.name, ph[obs.PhaseProve], prove.Duration())
		}
		checkParity(t, s)
	}
}

// TestBatchValidation checks invalid logs are rejected atomically.
func TestBatchValidation(t *testing.T) {
	g := gen.Cycle(5)
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	n, m, gen0 := s.Graph().N(), s.Graph().M(), s.Generation()
	cases := [][]Update{
		{{Op: AddEdge, A: 0, B: 0}},                            // self-loop
		{{Op: AddEdge, A: 0, B: 99}},                           // unknown endpoint
		{{Op: AddEdge, A: 0, B: 1}},                            // duplicate edge
		{{Op: RemoveEdge, A: 0, B: 2}},                         // absent edge
		{{Op: AddNode, A: 3}},                                  // duplicate node
		{{Op: AddEdge, A: 0, B: 2}, {Op: AddNode, A: 4}},       // valid then invalid
		{{Op: AddEdge, A: 0, B: 2}, {Op: AddEdge, A: 0, B: 2}}, // in-batch duplicate
	}
	for i, batch := range cases {
		if _, err := s.Apply(batch); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
		if s.Graph().N() != n || s.Graph().M() != m || s.Generation() != gen0 {
			t.Fatalf("case %d: invalid batch mutated the session", i)
		}
	}
	// A batch whose net effect cancels is a noop.
	rep, err := s.Apply([]Update{{Op: AddEdge, A: 0, B: 2}, {Op: RemoveEdge, A: 0, B: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeNoop || !rep.Accepted {
		t.Fatalf("cancelled batch: %+v", rep)
	}
	// Queue + Flush defers application.
	s.Queue(Update{Op: AddEdge, A: 0, B: 2})
	if s.Graph().HasEdge(0, 2) {
		t.Fatal("Queue applied an update early")
	}
	rep, err = s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Graph().HasEdge(0, 2) || !rep.Accepted {
		t.Fatalf("flush failed: %+v", rep)
	}
	checkParity(t, s)
}

// TestRepairDisabledUsesCache checks the reprove path populates the
// cache and oscillations hit it with the original generation stamp.
func TestRepairDisabledUsesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.StackedTriangulation(60, rng)
	s, err := NewSession(g, Config{
		Scheme:          core.PlanarScheme{},
		Counterpart:     core.NonPlanarScheme{},
		RepairThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Graph().Edges()[20]
	a, b := s.Graph().IDOf(e.U), s.Graph().IDOf(e.V)
	rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeReprove && rep.Mode != ModeUncertified {
		t.Fatalf("repair disabled but mode is %s", rep.Mode)
	}
	removedCertified := s.Certified()
	rep, err = s.Apply([]Update{{Op: AddEdge, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModeCache || rep.CacheGeneration != 0 {
		t.Fatalf("re-adding should hit the generation-0 cache entry: %+v", rep)
	}
	if removedCertified {
		rep, err = s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != ModeCache || rep.CacheGeneration != 1 {
			t.Fatalf("second removal should hit the generation-1 entry: %+v", rep)
		}
	}
	checkParity(t, s)
}

// TestThresholdZeroScopeFallsBack checks a tiny threshold demotes wide
// repairs to re-proves without losing correctness.
func TestThresholdZeroScopeFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.StackedTriangulation(50, rng)
	s, err := NewSession(g, Config{
		Scheme:          core.PlanarScheme{},
		Counterpart:     core.NonPlanarScheme{},
		RepairThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := s.Graph().Edges()[10]
	a, b := s.Graph().IDOf(e.U), s.Graph().IDOf(e.V)
	rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode == ModeRepair {
		t.Fatalf("threshold 1 should not allow chord repairs: %+v", rep)
	}
	checkParity(t, s)
}

// TestReproveEveryScheme re-proves a chord added to a cycle under every
// scheme a session can be configured with, repair and cache off, from
// an accepted assignment of the same scheme, so each re-prove diffs its
// certificates against that assignment. The path-outerplanar scheme's
// type holds a slice, so a re-prove must not compare scheme values.
func TestReproveEveryScheme(t *testing.T) {
	for _, sch := range []pls.Scheme{core.PlanarScheme{}, core.OuterplanarScheme{}, core.POScheme{}, pls.SpanningTreeScheme{}} {
		s, err := NewSession(gen.Cycle(40), Config{Scheme: sch, RepairThreshold: -1, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Apply([]Update{{Op: AddEdge, A: 0, B: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != ModeReprove || !rep.Accepted || rep.Dirty > s.g.N() {
			t.Fatalf("%s: %+v", sch.Name(), rep)
		}
		if out := s.VerifyFull(); !out.AllAccept() {
			t.Fatalf("%s: full verification rejected: %v", sch.Name(), out.Reasons)
		}
	}
}

// corruptingRepair wraps a session's repair state and, while armed,
// flips the last bit (the low bit of an interval end) of the
// certificate it returns for the smallest node identifier, so the
// frontier rejects the repair.
type corruptingRepair struct {
	repairState
	armed  bool
	victim graph.ID
}

func (c *corruptingRepair) repair(nb *netBatch, budget int) (map[graph.ID]bits.Certificate, []int, bool, string) {
	certs, changed, ok, reason := c.repairState.repair(nb, budget)
	if ok && c.armed && len(certs) > 0 {
		c.armed = false
		c.victim = slices.Min(slices.Collect(maps.Keys(certs)))
		cert := certs[c.victim]
		data := slices.Clone(cert.Data)
		last := cert.Bits - 1
		data[last/8] ^= 1 << (7 - last%8)
		certs[c.victim] = bits.Certificate{Data: data, Bits: cert.Bits}
	}
	return certs, changed, ok, reason
}

// TestRejectedRepairKeepsAcceptedBaseline corrupts one certificate of a
// chord-removal repair, so the frontier rejects it and the batch falls
// through to a re-prove. The re-prove must diff its certificates
// against the assignment accepted before the batch, not against the
// rejected repair's: its Dirty is that diff, and its sweep verifies
// exactly that diff's frontier, which holds the corrupted node, or is
// full. Afterwards the whole network accepts.
func TestRejectedRepairKeepsAcceptedBaseline(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(300, rand.New(rand.NewSource(5))),
		Config{Scheme: core.PlanarScheme{}, Counterpart: core.NonPlanarScheme{}, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	rejected, frontier := 0, 0
	for _, e := range s.Graph().Edges() {
		if rejected == 8 {
			break
		}
		wrap, ok := s.state.(*corruptingRepair)
		if !ok {
			wrap = &corruptingRepair{repairState: s.state}
			s.state = wrap
		}
		wrap.armed = true
		before := maps.Clone(s.certs)
		a, b := s.g.IDOf(e.U), s.g.IDOf(e.V)
		rep, err := s.Apply([]Update{{Op: RemoveEdge, A: a, B: b}})
		if err != nil {
			t.Fatal(err)
		}
		if out := s.VerifyFull(); !out.AllAccept() || !s.Certified() {
			t.Fatalf("removing {%d,%d} (%s, %s): full verification rejected", a, b, rep.Mode, rep.RepairFallback)
		}
		if wrap.armed { // no repair returned certificates
			continue
		}
		rejected++
		if rep.Mode != ModeReprove || !strings.HasPrefix(rep.RepairFallback, "frontier rejected") {
			t.Fatalf("corrupted repair of {%d,%d} absorbed as %s (%s)", a, b, rep.Mode, rep.RepairFallback)
		}
		changed := s.changedIdxs(before, s.certs)
		if rep.Dirty != len(changed) {
			t.Fatalf("re-prove reports %d changed certificates, %d differ from the accepted assignment", rep.Dirty, len(changed))
		}
		if rep.FullVerify {
			continue
		}
		frontier++
		want := s.frontierOf(changed, []int{e.U, e.V})
		victim, _ := s.g.IndexOf(wrap.victim)
		if rep.Verified != len(want) || !slices.Contains(want, victim) {
			t.Fatalf("re-prove verified %d nodes; the frontier of its diff against the accepted assignment has %d (corrupted node in it: %v)",
				rep.Verified, len(want), slices.Contains(want, victim))
		}
	}
	if frontier == 0 {
		t.Fatalf("no corrupted repair fell through to a frontier-verified re-prove (%d rejected)", rejected)
	}
}
