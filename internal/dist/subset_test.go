package dist_test

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// oracle verifies every node of g on a 1-round view built by hand from
// the graph and the assignment keyed by identifier, with fresh slices
// and no scratch, and returns each node's verdict by index ("" for
// accept).
func oracle(g *graph.Graph, certs map[graph.ID]bits.Certificate, verify func(dist.View) error) []string {
	verdicts := make([]string, g.N())
	for u := range verdicts {
		var ncs []dist.NeighborCert
		for _, v := range g.Neighbors(u) {
			ncs = append(ncs, dist.NeighborCert{ID: g.IDOf(v), Cert: certs[g.IDOf(v)], Idx: int32(v)})
		}
		view := dist.View{ID: g.IDOf(u), Idx: int32(u), Degree: g.Degree(u), Cert: certs[g.IDOf(u)], Neighbors: ncs}
		if err := verify(view); err != nil {
			verdicts[u] = err.Error()
		}
	}
	return verdicts
}

// checkAgainstOracle checks a sweep's Outcome over the node set sub
// (ascending, distinct) against the oracle's verdicts: the rejecting
// nodes in index order with their reasons, and the accounting of the
// subset's own certificates and degrees.
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, certs map[graph.ID]bits.Certificate, verdicts []string, sub []int, out *dist.Outcome) {
	t.Helper()
	want := dist.Outcome{N: len(sub)}
	var rejecting []graph.ID
	for _, u := range sub {
		c := certs[g.IDOf(u)]
		want.TotalCertBits += c.Bits
		want.MaxCertBit = max(want.MaxCertBit, c.Bits)
		if g.Degree(u) > 0 {
			want.Messages += g.Degree(u)
			want.MaxMsgBit = max(want.MaxMsgBit, c.Bits)
		}
		if verdicts[u] != "" {
			rejecting = append(rejecting, g.IDOf(u))
		}
	}
	if out.N != want.N || out.TotalCertBits != want.TotalCertBits || out.MaxCertBit != want.MaxCertBit ||
		out.Messages != want.Messages || out.MaxMsgBit != want.MaxMsgBit {
		t.Fatalf("%s: accounting %+v, want %+v", name, out, want)
	}
	if !slices.Equal(out.Rejecting, rejecting) {
		t.Fatalf("%s: rejecting %v, want %v", name, out.Rejecting, rejecting)
	}
	for _, id := range rejecting {
		u, _ := g.IndexOf(id)
		if out.Reasons[id] != verdicts[u] {
			t.Fatalf("%s: node %d rejects with %q, want %q", name, id, out.Reasons[id], verdicts[u])
		}
	}
}

// TestSubsetMatchesFullRun checks RunPLSSubset, over every node and
// over a partial subset given with duplicates, against the per-node
// oracle, sequentially and in parallel, on honest and corrupted
// certificates; the full-sweep entry points RunPLSAll and RunPLS are
// checked against it too.
func TestSubsetMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.StackedTriangulation(80, rng)
	scheme := pls.SpanningTreeScheme{}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	part := []int{70, 3, 17, 17, 40, 3, 0, 79}
	partSorted := []int{0, 3, 17, 40, 70, 79}
	honest, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, certs map[graph.ID]bits.Certificate) (rejected bool) {
		t.Helper()
		verdicts := oracle(g, certs, scheme.Verify)
		byIdx := dist.ByIndex(g, certs)
		for name, eng := range map[string]*dist.Engine{
			"seq": dist.NewEngine(g, dist.Sequential()),
			"par": dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(3)),
		} {
			checkAgainstOracle(t, name+" subset of all", g, certs, verdicts, all, eng.RunPLSSubset(byIdx, scheme.Verify, all))
			checkAgainstOracle(t, name+" partial subset", g, certs, verdicts, partSorted, eng.RunPLSSubset(byIdx, scheme.Verify, part))
			checkAgainstOracle(t, name+" RunPLSAll", g, certs, verdicts, all, eng.RunPLSAll(byIdx, scheme.Verify))
			checkAgainstOracle(t, name+" RunPLS", g, certs, verdicts, all, eng.RunPLS(certs, scheme.Verify))
		}
		return slices.ContainsFunc(verdicts, func(v string) bool { return v != "" })
	}
	if run(t, honest) {
		t.Fatal("the oracle rejects honest certificates")
	}

	bad := maps.Clone(honest)
	vid := g.IDOf(17)
	data := append([]byte(nil), bad[vid].Data...)
	data[0] ^= 0x80
	bad[vid] = bits.Certificate{Data: data, Bits: bad[vid].Bits}
	if !run(t, bad) {
		t.Fatal("the oracle accepts a corrupted certificate")
	}
}

// TestSubsetLocalisesCorruption checks the frontier-soundness contract:
// a corrupted certificate is detected by any subset meeting the node's
// 1-hop closure, and invisible to subsets that avoid it.
func TestSubsetLocalisesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := gen.StackedTriangulation(60, rng)
	scheme := pls.SpanningTreeScheme{}
	byID, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	certs := dist.ByIndex(g, byID)
	victim := 23
	data := append([]byte(nil), certs[victim].Data...)
	if len(data) == 0 {
		t.Fatal("empty certificate")
	}
	data[len(data)/2] ^= 0x40
	certs[victim] = bits.Certificate{Data: data, Bits: certs[victim].Bits}

	closure := map[int]bool{victim: true}
	for _, w := range g.Neighbors(victim) {
		closure[w] = true
	}
	var inside, outside []int
	for v := 0; v < g.N(); v++ {
		if closure[v] {
			inside = append(inside, v)
		} else {
			outside = append(outside, v)
		}
	}
	eng := dist.NewEngine(g)
	if out := eng.RunPLSSubset(certs, scheme.Verify, inside); out.AllAccept() {
		t.Fatalf("corruption at node %d not caught by its 1-hop closure", g.IDOf(victim))
	}
	if out := eng.RunPLSSubset(certs, scheme.Verify, outside); !out.AllAccept() {
		t.Fatalf("nodes outside the closure rejected: %v", out.Reasons)
	}
}

// TestSubsetTracksLiveGraph checks that an engine reads the live
// topology: a subset sweep after a graph mutation sees the mutation.
func TestSubsetTracksLiveGraph(t *testing.T) {
	g := gen.Cycle(8)
	scheme := pls.SpanningTreeScheme{}
	byID, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	certs := dist.ByIndex(g, byID)
	eng := dist.NewEngine(g)
	if out := eng.RunPLSAll(certs, scheme.Verify); !out.AllAccept() {
		t.Fatalf("honest cycle rejected: %v", out.Reasons)
	}
	// Cut the cycle: node 1 loses the tree edge to its parent 0 and must
	// reject on its live view.
	if !g.RemoveEdge(0, 1) {
		t.Fatal("edge {0,1} missing")
	}
	out := eng.RunPLSSubset(certs, scheme.Verify, []int{1})
	if out.AllAccept() {
		t.Fatal("subset verification missed the removed parent edge")
	}
	// Duplicate and out-of-range indices are dropped.
	out = eng.RunPLSSubset(certs, scheme.Verify, []int{2, 2, -1, 99, 3})
	if out.N != 2 {
		t.Fatalf("want 2 verified nodes, got %d", out.N)
	}
	if out = eng.RunPLSSubset(certs, scheme.Verify, []int{-1, 99}); out.N != 0 {
		t.Fatalf("an empty subset verified %d nodes", out.N)
	}
}
