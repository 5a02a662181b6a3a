package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// TestRotationRoundTrip reads the rotation system off a fresh prover's
// certificate objects, proves again from it, and requires byte-identical
// certificates: the read recovers the embedding the certificates encode.
// Each holder's edge certificates and every byRank run are shuffled
// first, so the read may depend on the ranks alone.
func TestRotationRoundTrip(t *testing.T) {
	randomPlanar, err := gen.RandomPlanar(1000, 1800, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"stacked-2000":       gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))),
		"random-planar-1000": randomPlanar,
		"wheel-1024":         gen.Wheel(1024),
		"grid-40x50":         gen.Grid(40, 50),
	}
	for _, n := range []int{10, 200, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			cases[fmt.Sprintf("stacked-%d-seed%d", n, seed)] = gen.StackedTriangulation(n, rand.New(rand.NewSource(seed)))
		}
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			objs, want, _, err := core.ProvePlanarFrom(g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPlanarState(g, objs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for v := range p.objs {
				es := p.objs[v].Edges
				rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			}
			for _, run := range p.byRank {
				rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
			}
			_, got, kept, err := core.ProvePlanarFrom(g, p.rotation(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !kept {
				t.Fatal("the rotation read off the certificates failed the audit or the transform")
			}
			if !slices.EqualFunc(got, want, func(a, b bits.Certificate) bool { return a.Equal(b) }) {
				t.Fatal("certificates proved from the read rotation differ from the prover's")
			}
		})
	}
}

// TestReaddOverThresholdKeepsEmbedding pins the re-add of an edge whose
// chord is over the repair threshold. Two chords of a stacked
// triangulation are removed, and the first is re-added with the
// threshold below any chord's width. Its re-prove inserts the chord
// into the kept embedding instead of running the LR test, whose new
// embedding could strand the second removed edge; the second re-add,
// under the default threshold, is then a repair.
func TestReaddOverThresholdKeepsEmbedding(t *testing.T) {
	s, err := NewSession(gen.StackedTriangulation(300, rand.New(rand.NewSource(3))), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	first, second := twoChords(t, s)
	rep, err := s.Apply([]Update{{Op: RemoveEdge, A: first[0], B: first[1]}, {Op: RemoveEdge, A: second[0], B: second[1]}})
	if err != nil || rep.Mode != ModeRepair || !rep.Accepted {
		t.Fatalf("removing two chords: %+v, %v", rep, err)
	}

	s.threshold = 1 // below the width of every chord
	root := obs.New(obs.Config{}).Start("s", obs.SpanBatch)
	s.TraceNext(root)
	rep, err = s.Apply([]Update{{Op: AddEdge, A: first[0], B: first[1]}})
	root.End()
	if err != nil || rep.Mode != ModeReprove || !rep.Accepted || !strings.Contains(rep.RepairFallback, "exceeds repair threshold") {
		t.Fatalf("re-adding %v over the threshold: %+v, %v", first, rep, err)
	}
	for _, pv := range root.Children() {
		if pv.Name() != obs.SpanProve {
			continue
		}
		if e, _ := pv.StrAttr("embedding"); e != "kept" {
			t.Fatalf("re-adding %v: embedding %q, want kept", first, e)
		}
		for _, c := range pv.Children() {
			if c.Name() == obs.SpanLRCheck {
				t.Fatalf("re-adding %v ran the LR test", first)
			}
		}
	}
	checkParity(t, s)

	s.threshold = DefaultRepairThreshold
	rep, err = s.Apply([]Update{{Op: AddEdge, A: second[0], B: second[1]}})
	if err != nil || rep.Mode != ModeRepair || !rep.Accepted {
		t.Fatalf("re-adding %v after the kept re-prove: %+v, %v", second, rep, err)
	}
	if err := s.CheckRepairState(); err != nil {
		t.Fatal(err)
	}
	checkParity(t, s)
}

// TestKeptRotationSkipsRepairedChord re-adds two removed chords in one
// batch under a threshold that the first chord's face charge uses up,
// so the repair attaches the first and falls back on the second. The
// re-prove must insert only the second: the first is in the state
// already.
func TestKeptRotationSkipsRepairedChord(t *testing.T) {
	cfg := planarCfg()
	cfg.CacheSize = -1 // the batch restores the first topology
	s, err := NewSession(gen.StackedTriangulation(300, rand.New(rand.NewSource(3))), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, second := twoChords(t, s)
	if first[0] > second[0] || (first[0] == second[0] && first[1] > second[1]) {
		first, second = second, first // a batch's edges are repaired in this order
	}
	batch := []Update{{Op: RemoveEdge, A: first[0], B: first[1]}, {Op: RemoveEdge, A: second[0], B: second[1]}}
	if rep, err := s.Apply(batch); err != nil || rep.Mode != ModeRepair {
		t.Fatalf("removing two chords: %+v, %v", rep, err)
	}
	p := s.state.(*planarState)
	e, _ := p.idxPair(first)
	ru, rv, ok := p.chordFace(e)
	if !ok {
		t.Fatal("no face for the first chord")
	}
	s.threshold = p.faceUnder(min(ru, rv), max(ru, rv)) // the first chord's charge exactly
	for i := range batch {
		batch[i].Op = AddEdge
	}
	root := obs.New(obs.Config{}).Start("s", obs.SpanBatch)
	s.TraceNext(root)
	rep, err := s.Apply(batch)
	root.End()
	if err != nil || rep.Mode != ModeReprove || !rep.Accepted || !strings.Contains(rep.RepairFallback, "exceeds repair threshold") {
		t.Fatalf("re-adding both: %+v, %v", rep, err)
	}
	for _, pv := range root.Children() {
		if e, _ := pv.StrAttr("embedding"); pv.Name() == obs.SpanProve && e != "kept" {
			t.Fatalf("re-adding both: embedding %q, want kept", e)
		}
	}
	checkParity(t, s)
}

// twoChords returns two cotree edges of the session's planarity state.
func twoChords(t *testing.T, s *Session) (first, second [2]graph.ID) {
	t.Helper()
	p := s.state.(*planarState)
	var chords [][2]graph.ID
	for v := range p.objs {
		for _, ec := range p.objs[v].Edges {
			if !ec.IsTree {
				chords = append(chords, normPair(ec.U, ec.V))
			}
		}
	}
	if len(chords) < 2 {
		t.Fatal("fewer than two chords")
	}
	return chords[0], chords[1]
}

// TestInsertChordsMissLeavesState checks that a kept rotation that finds
// no face for an added edge leaves the session's repair state as the
// certificates describe it, also when an earlier edge of the batch was
// inserted first: on K_{2,4}, two degree-2 nodes consecutive around a hub
// share a face, and the opposite pair shares none.
func TestInsertChordsMissLeavesState(t *testing.T) {
	s, err := NewSession(gen.CompleteBipartite(2, 4), planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	p := s.state.(*planarState)
	ring := p.rotation().Order[0]
	pair := func(i, j int) [2]graph.ID { return normPair(s.g.IDOf(ring[i]), s.g.IDOf(ring[j])) }
	for _, added := range [][][2]graph.ID{
		{pair(0, 2)},
		{pair(0, 1), pair(0, 2)},
		{pair(0, 1), pair(2, 3), pair(1, 3)},
	} {
		if rot := s.keptRotation(&netBatch{addedEdges: added}, nil); rot != nil {
			t.Fatalf("%v: kept rotation %v, want none", added, rot.Order)
		}
		if s.state != p {
			t.Fatalf("%v: the miss replaced the repair state", added)
		}
		if err := s.CheckRepairState(); err != nil {
			t.Fatalf("%v: %v", added, err)
		}
	}
	if rot := s.keptRotation(&netBatch{addedEdges: [][2]graph.ID{pair(0, 1), pair(2, 3)}}, nil); rot == nil {
		t.Fatal("two chords in two faces found no kept rotation")
	}
}

// TestRepairStreamKeepsEmbedding runs the repair-stream shape that
// `experiments fallbacks` tallies, as its session 0: a stacked
// triangulation of n=2000 and 600 batches, each removing a
// triangulation edge that is not a bridge or re-adding a removed one,
// with at most 64 out at a time. Every batch must be accepted with a
// repair state that its certificates rebuild, and a re-prove verified
// on its frontier must also pass a full sweep. A re-add over the repair
// threshold inserts its chord into the kept embedding, so at most 20
// re-proves may run the LR test (56 did when every re-prove of a re-add
// ran it).
func TestRepairStreamKeepsEmbedding(t *testing.T) {
	const n, batches, maxRemoved = 2000, 600, 64
	g := gen.StackedTriangulation(n, rand.New(rand.NewSource(1)))
	base := g.Edges()
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var removed []graph.Edge
	lr := 0
	for b := 0; b < batches; b++ {
		u := Update{Op: AddEdge}
		if len(removed) == maxRemoved || (len(removed) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(removed))
			u.A, u.B = s.g.IDOf(removed[j].U), s.g.IDOf(removed[j].V)
			removed = slices.Delete(removed, j, j+1)
		} else {
			for {
				e := base[rng.Intn(len(base))]
				if slices.Contains(removed, e) {
					continue
				}
				h := s.g.Clone()
				h.RemoveEdge(e.U, e.V)
				if h.Connected() {
					removed = append(removed, e)
					u = Update{Op: RemoveEdge, A: g.IDOf(e.U), B: g.IDOf(e.V)}
					break
				}
			}
		}
		root := obs.New(obs.Config{}).Start("s", obs.SpanBatch)
		s.TraceNext(root)
		rep, err := s.Apply([]Update{u})
		root.End()
		if err != nil || !rep.Accepted {
			t.Fatalf("batch %d %v: %+v, %v", b, u, rep, err)
		}
		if err := s.CheckRepairState(); err != nil {
			t.Fatalf("batch %d (%s): %v", b, rep.Mode, err)
		}
		if rep.Mode == ModeReprove && !rep.FullVerify && !s.VerifyFull().AllAccept() {
			t.Fatalf("batch %d: the frontier accepted a re-prove that a full sweep rejects", b)
		}
		for _, pv := range root.Children() {
			if e, _ := pv.StrAttr("embedding"); pv.Name() == obs.SpanProve && e == "lr" {
				lr++
			}
		}
	}
	if lr > 20 {
		t.Fatalf("%d re-proves ran the LR test, want at most 20", lr)
	}
}

// TestReaddRestoresRotation runs the repair-stream shape of
// TestRepairStreamKeepsEmbedding for 2400 batches, with the stream seed
// of `experiments fallbacks -seed 2`, and then re-adds every edge still
// out. Each re-add goes back to the corners its removal left, named by
// the neighbors after it, whatever the splices and re-proves in between
// did to the ranks. So no re-add misses a face, and the rotation system
// at the end is the one at the start, up to where each node's cyclic
// list starts. The narrowest copy pair alone puts some chord into
// another face, where it splits a face a later re-add needs: 156 re-adds
// of this stream then found no face.
func TestReaddRestoresRotation(t *testing.T) {
	const n, batches, maxRemoved = 2000, 2400, 64
	g := gen.StackedTriangulation(n, rand.New(rand.NewSource(1)))
	base := g.Edges()
	s, err := NewSession(g, planarCfg())
	if err != nil {
		t.Fatal(err)
	}
	cyclic := func() [][]int {
		if s.state == nil {
			if s.state, err = s.decodeState(); err != nil {
				t.Fatal(err)
			}
		}
		rot := s.state.(*planarState).rotation().Order
		for v, ring := range rot {
			i := slices.Index(ring, slices.Min(ring))
			rot[v] = append(slices.Clone(ring[i:]), ring[:i]...)
		}
		return rot
	}
	want := cyclic()
	rng := rand.New(rand.NewSource(2))
	var removed []graph.Edge
	misses := 0
	for b := 0; b < batches || len(removed) > 0; b++ {
		u := Update{Op: AddEdge}
		if b >= batches || len(removed) == maxRemoved || (len(removed) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(removed))
			u.A, u.B = s.g.IDOf(removed[j].U), s.g.IDOf(removed[j].V)
			removed = slices.Delete(removed, j, j+1)
		} else {
			for {
				e := base[rng.Intn(len(base))]
				if slices.Contains(removed, e) {
					continue
				}
				h := s.g.Clone()
				h.RemoveEdge(e.U, e.V)
				if h.Connected() {
					removed = append(removed, e)
					u = Update{Op: RemoveEdge, A: g.IDOf(e.U), B: g.IDOf(e.V)}
					break
				}
			}
		}
		rep, err := s.Apply([]Update{u})
		if err != nil || !rep.Accepted {
			t.Fatalf("batch %d %v: %+v, %v", b, u, rep, err)
		}
		if strings.Contains(rep.RepairFallback, "no non-crossing chord attachment") {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d re-adds found no face", misses)
	}
	if got := cyclic(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatal("the re-adds did not restore the rotation system")
	}
	checkParity(t, s)
}
