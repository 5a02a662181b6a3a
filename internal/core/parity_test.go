package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// viewsOf assembles every node's 1-round view of certs over g, with no
// scratch attached (the caller decides).
func viewsOf(g *graph.Graph, certs map[graph.ID]bits.Certificate) []dist.View {
	views := make([]dist.View, g.N())
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		ncs := make([]dist.NeighborCert, len(nbrs))
		for i, v := range nbrs {
			ncs[i] = dist.NeighborCert{ID: g.IDOf(v), Cert: certs[g.IDOf(v)]}
		}
		views[u] = dist.View{
			ID:        g.IDOf(u),
			Degree:    len(nbrs),
			Cert:      certs[g.IDOf(u)],
			Neighbors: ncs,
		}
	}
	return views
}

// verdictOf runs one node's verification and flattens the result —
// accept, a rejection reason, or a contained panic — into a string, the
// exact observable the engine reports per node.
func verdictOf(scheme pls.Scheme, v dist.View) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %v", r)
		}
	}()
	if err := scheme.Verify(v); err != nil {
		return err.Error()
	}
	return ""
}

// TestDecodeParityAllSchemes is the decode-parity battery of the
// allocation-free hot path: for every scheme, verifying a node with the
// pooled per-worker scratch must produce a verdict — accept, or reject
// with the identical reason string — equal to verifying with fresh
// allocations (a nil View.Scratch). One scratch instance is reused
// across every node, corpus entry, graph, and scheme, so each
// verification runs against maximally stale scratch contents: any state
// leaking from one decode into the next shows up as a verdict diff.
func TestDecodeParityAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shared := new(dist.Scratch) // deliberately never reset between uses
	cases := []struct {
		name      string
		scheme    pls.Scheme
		member    *graph.Graph
		nonMember *graph.Graph
	}{
		{
			name:      "planarity",
			scheme:    core.PlanarScheme{},
			member:    gen.Grid(4, 4),
			nonMember: withExtraNodes(gen.Complete(5), 11),
		},
		{
			name:      "outerplanarity",
			scheme:    core.OuterplanarScheme{},
			member:    gen.RandomOuterplanar(16, 0.6, rng),
			nonMember: gen.Wheel(16),
		},
		{
			name:      "non-planarity",
			scheme:    core.NonPlanarScheme{},
			member:    withExtraNodes(gen.Complete(5), 11),
			nonMember: gen.Grid(4, 4),
		},
		{
			name:      "path-outerplanar",
			scheme:    core.POScheme{},
			member:    gen.RandomPathOuterplanar(16, 0.5, rng),
			nonMember: gen.Star(16),
		},
		{
			name:      "spanning-tree",
			scheme:    pls.SpanningTreeScheme{},
			member:    gen.Grid(4, 4),
			nonMember: gen.Star(16),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest, err := tc.scheme.Prove(tc.member)
			if err != nil {
				t.Fatalf("prover: %v", err)
			}
			// Corpus: the honest certificates, many corrupted variants
			// (bit flips, truncations, extensions, wholesale replacements),
			// and a node-swapped assignment.
			corpora := []map[graph.ID]bits.Certificate{honest}
			for trial := 0; trial < 60; trial++ {
				corpora = append(corpora, corrupt(honest, rng))
			}
			if sw := swapTwo(honest, rng); sw != nil {
				corpora = append(corpora, sw)
			}
			// Each corpus entry is replayed on the member and — the
			// adversarial case — on a non-member with different topology.
			for gi, g := range []*graph.Graph{tc.member, tc.nonMember} {
				for ci, certs := range corpora {
					for _, v := range viewsOf(g, certs) {
						fresh := verdictOf(tc.scheme, v)
						pv := v
						pv.Scratch = shared
						pooled := verdictOf(tc.scheme, pv)
						if fresh != pooled {
							t.Fatalf("graph %d corpus %d node %d: fresh verdict %q != pooled verdict %q",
								gi, ci, v.ID, fresh, pooled)
						}
					}
				}
			}
		})
	}
}

// sweepFixture is a member graph of a scheme with its honest
// certificates. IDs are scrambled so node identifiers and node indices
// differ, which a decode memo keyed by the wrong one would show.
type sweepFixture struct {
	name   string
	scheme pls.Scheme
	g      *graph.Graph
	honest map[graph.ID]bits.Certificate
}

func sweepFixtures(t testing.TB, rng *rand.Rand) []sweepFixture {
	t.Helper()
	var fxs []sweepFixture
	for _, fx := range []sweepFixture{
		{name: "planarity/grid-5x5", scheme: core.PlanarScheme{}, g: gen.Grid(5, 5)},
		{name: "planarity/stacked-2000", scheme: core.PlanarScheme{}, g: gen.StackedTriangulation(2000, rng)},
		{name: "outerplanarity/200", scheme: core.OuterplanarScheme{}, g: gen.RandomOuterplanar(200, 0.6, rng)},
	} {
		fx.g = gen.ScrambleIDs(fx.g, rng)
		honest, err := fx.scheme.Prove(fx.g)
		if err != nil {
			t.Fatalf("%s: prover: %v", fx.name, err)
		}
		fx.honest = honest
		fxs = append(fxs, fx)
	}
	return fxs
}

// corruptAt returns certs with the certificate of the node at index u
// replaced by a mutation of it: bit flips, a truncation, an extension
// or another node's certificate.
func corruptAt(g *graph.Graph, certs map[graph.ID]bits.Certificate, u int, rng *rand.Rand) map[graph.ID]bits.Certificate {
	out := make(map[graph.ID]bits.Certificate, len(certs))
	for id, c := range certs {
		out[id] = c
	}
	id := g.IDOf(u)
	c := certs[id]
	data := append([]byte(nil), c.Data...)
	nbits := c.Bits
	switch rng.Intn(4) {
	case 0:
		for i := 0; i < 1+rng.Intn(4) && nbits > 0; i++ {
			pos := rng.Intn(nbits)
			data[pos/8] ^= 1 << (7 - uint(pos%8))
		}
	case 1:
		nbits = rng.Intn(nbits + 1)
		data = data[:(nbits+7)/8]
	case 2:
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
		nbits = len(data) * 8
	default:
		other := certs[g.IDOf(rng.Intn(g.N()))]
		data, nbits = append([]byte(nil), other.Data...), other.Bits
	}
	out[id] = bits.Certificate{Data: data, Bits: nbits}
	return out
}

// freshVerdicts verifies every node of g on certs with no scratch: the
// per-node baseline every engine sweep must reproduce.
func freshVerdicts(scheme pls.Scheme, g *graph.Graph, certs map[graph.ID]bits.Certificate) []string {
	views := viewsOf(g, certs)
	out := make([]string, len(views))
	for u, v := range views {
		out[u] = verdictOf(scheme, v)
	}
	return out
}

// checkOutcome compares an engine Outcome over the node indices idxs
// (ascending) with the fresh per-node verdicts: the same rejecting
// nodes in the same order, each with the same reason. The engine wraps
// a contained panic in its own prefix, so there parity means "both
// panicked".
func checkOutcome(t testing.TB, g *graph.Graph, idxs []int, want []string, out *dist.Outcome) {
	t.Helper()
	var rejecting []graph.ID
	for _, u := range idxs {
		id := g.IDOf(u)
		got, ok := out.Reasons[id]
		if want[u] != "" {
			rejecting = append(rejecting, id)
		}
		if want[u] == got && ok == (got != "") {
			continue
		}
		if strings.HasPrefix(want[u], "panic: ") && strings.Contains(got, "panicked") {
			continue
		}
		t.Fatalf("node %d (index %d): engine verdict %q != fresh verdict %q", id, u, got, want[u])
	}
	if !slices.Equal(out.Rejecting, rejecting) {
		t.Fatalf("engine rejecting %v != fresh rejecting %v", out.Rejecting, rejecting)
	}
}

// sweepOpts are the engine modes every memo test runs: sequential, and
// parallel with small shards so several workers (each with its own
// memo) share the nodes.
func sweepOpts(pool *dist.ScratchPool) [][]dist.Option {
	return [][]dist.Option{
		{dist.Sequential(), dist.WithScratch(pool)},
		{dist.Parallel(4), dist.ShardSize(4), dist.WithScratch(pool)},
	}
}

// frontierOf returns u's closed neighborhood plus every k-th node, in
// ascending order: a frontier sweep whose views share neighbors.
func frontierOf(g *graph.Graph, u, k int) []int {
	keep := map[int]bool{u: true}
	for _, v := range g.Neighbors(u) {
		keep[v] = true
	}
	for v := 0; v < g.N(); v += k {
		keep[v] = true
	}
	idxs := make([]int, 0, len(keep))
	for v := range keep {
		idxs = append(idxs, v)
	}
	slices.Sort(idxs)
	return idxs
}

// TestDecodeParityEngineSweep runs whole sweeps through the engine —
// the path that wires pooled scratch and the per-sweep decode memo into
// verification — and checks each Outcome (rejecting nodes and reasons)
// against a fresh-scratch per-node baseline: full sweeps and frontier
// sweeps, sequential and parallel, for the planarity and
// outerplanarity schemes, on corrupted assignments, all on one shared
// pool so every sweep inherits the previous sweeps' memo contents.
func TestDecodeParityEngineSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pool := dist.NewScratchPool()
	for _, fx := range sweepFixtures(t, rng) {
		t.Run(fx.name, func(t *testing.T) {
			trials := 40
			if fx.g.N() > 500 {
				trials = 8
			}
			for trial := 0; trial < trials; trial++ {
				certs, victim := fx.honest, rng.Intn(fx.g.N())
				if trial > 0 {
					certs = corruptAt(fx.g, fx.honest, victim, rng)
				}
				want := freshVerdicts(fx.scheme, fx.g, certs)
				all := make([]int, fx.g.N())
				for u := range all {
					all[u] = u
				}
				frontier := frontierOf(fx.g, victim, 7)
				for _, opts := range sweepOpts(pool) {
					eng := dist.NewEngine(fx.g, opts...)
					checkOutcome(t, fx.g, all, want, eng.RunPLS(certs, fx.scheme.Verify))
					checkOutcome(t, fx.g, frontier, want, eng.RunPLSSubset(dist.ByIndex(fx.g, certs), fx.scheme.Verify, frontier))
				}
			}
		})
	}
}

// TestSweepMemoNotStale reuses one pool and one engine for consecutive
// sweeps in which a single node's certificate changes between sweeps:
// honest then corrupted (the memo holds the node's honest decode), and
// corrupted then honest (it holds a failed decode). Every sweep must
// reject exactly as the fresh baseline for its own assignment does.
func TestSweepMemoNotStale(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, fx := range sweepFixtures(t, rng) {
		t.Run(fx.name, func(t *testing.T) {
			all := make([]int, fx.g.N())
			for u := range all {
				all[u] = u
			}
			for trial := 0; trial < 6; trial++ {
				victim := rng.Intn(fx.g.N())
				bad := corruptAt(fx.g, fx.honest, victim, rng)
				wantBad := freshVerdicts(fx.scheme, fx.g, bad)
				wantHonest := freshVerdicts(fx.scheme, fx.g, fx.honest)
				frontier := frontierOf(fx.g, victim, 11)
				for _, opts := range sweepOpts(dist.NewScratchPool()) {
					eng := dist.NewEngine(fx.g, opts...)
					for _, step := range []struct {
						certs map[graph.ID]bits.Certificate
						want  []string
					}{{fx.honest, wantHonest}, {bad, wantBad}, {fx.honest, wantHonest}, {bad, wantBad}} {
						checkOutcome(t, fx.g, all, step.want, eng.RunPLS(step.certs, fx.scheme.Verify))
						checkOutcome(t, fx.g, frontier, step.want, eng.RunPLSSubset(dist.ByIndex(fx.g, step.certs), fx.scheme.Verify, frontier))
					}
				}
			}
		})
	}
}

// TestSweepDecodesEachCertificateOnce pins the point of the memo: a
// sequential sweep decodes each of the n certificates once, where
// verifying the views one by one decodes each certificate deg+1 times.
func TestSweepDecodesEachCertificateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := gen.ScrambleIDs(gen.StackedTriangulation(500, rng), rng)
	scheme := core.PlanarScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	eng := dist.NewEngine(g, dist.Sequential())
	for sweep := 0; sweep < 2; sweep++ {
		stop := core.CountDecodes()
		out := eng.RunPLS(certs, scheme.Verify)
		if got := stop(); got != g.N() {
			t.Fatalf("sweep %d decoded %d certificates, want n = %d", sweep, got, g.N())
		}
		if !out.AllAccept() {
			t.Fatalf("honest sweep rejected: %v", out.Reasons)
		}
	}
	stop := core.CountDecodes()
	for _, v := range viewsOf(g, certs) {
		if err := scheme.Verify(v); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := stop(), g.N()+2*g.M(); got != want {
		t.Fatalf("per-view verification decoded %d certificates, want n+2m = %d", got, want)
	}
}
