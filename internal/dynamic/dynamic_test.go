package dynamic

import (
	"math/rand"
	"slices"
	"testing"
	"time"

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
	// The cache is disabled so re-adds re-prove and keep the structured
	// state warm (a cache adoption leaves it cold by design).
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
		ts := s.state.(*treeState)
		_, _, isTree := ts.st.isTreeEdge(u, v)
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
	if rep.Mode != ModeFlip || s.ActiveScheme().Name() != "non-planarity" || !rep.Accepted {
		t.Fatalf("completing K5 did not flip: %+v", rep)
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
func TestReproveTraceSteps(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(60, rand.New(rand.NewSource(2))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	root := obs.New(obs.Config{}).Start("s", obs.SpanBatch)
	s.TraceNext(root)
	rep, err := s.Apply([]Update{{Op: AddNode, A: 1000}, {Op: AddEdge, A: 1000, B: 0}})
	if err != nil || rep.Mode != ModeReprove || !rep.Accepted {
		t.Fatalf("leaf attach: %+v, %v", rep, err)
	}
	root.End()
	var prove *obs.Span
	for _, c := range root.Children() {
		if c.Name() == obs.SpanProve {
			prove = c
		}
	}
	if prove == nil {
		t.Fatal("no prove span")
	}
	want := []string{obs.SpanLRCheck, obs.SpanEulerAudit, obs.SpanTransform,
		obs.SpanCertObjects, obs.SpanEncode, obs.SpanRepairState}
	var got []string
	var sum time.Duration
	for _, c := range prove.Children() {
		got = append(got, c.Name())
		sum += c.Duration()
	}
	if !slices.Equal(got, want) {
		t.Fatalf("prove children = %v, want %v", got, want)
	}
	if sum > prove.Duration() {
		t.Fatalf("steps add up to %v, more than the prove span's %v", sum, prove.Duration())
	}
	if ph := obs.Phases(root); ph[obs.PhaseProve] != prove.Duration() {
		t.Fatalf("Phases books %v as prove, span lasted %v", ph[obs.PhaseProve], prove.Duration())
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
