package dist_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// engines returns the execution modes whose Outcomes must be identical
// in exhaustive mode. The tiny shard size forces many shards even on
// small test graphs so the worker handoff is actually exercised.
func engines(g *graph.Graph) map[string]*dist.Engine {
	return map[string]*dist.Engine{
		"sequential": dist.NewEngine(g, dist.Sequential()),
		"parallel":   dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(8)),
	}
}

func sameOutcome(t *testing.T, a, b *dist.Outcome) {
	t.Helper()
	if a.AllAccept() != b.AllAccept() {
		t.Fatalf("modes disagree on acceptance: %v vs %v", a.AllAccept(), b.AllAccept())
	}
	if len(a.Rejecting) != len(b.Rejecting) {
		t.Fatalf("rejecting sets differ: %v vs %v", a.Rejecting, b.Rejecting)
	}
	for i := range a.Rejecting {
		if a.Rejecting[i] != b.Rejecting[i] {
			t.Fatalf("rejecting order differs at %d: %v vs %v", i, a.Rejecting, b.Rejecting)
		}
		id := a.Rejecting[i]
		if a.Reasons[id] != b.Reasons[id] {
			t.Fatalf("reasons differ at node %d: %q vs %q", id, a.Reasons[id], b.Reasons[id])
		}
	}
	if a.MaxCertBit != b.MaxCertBit || a.TotalCertBits != b.TotalCertBits ||
		a.Messages != b.Messages || a.MaxMsgBit != b.MaxMsgBit || a.N != b.N {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
}

// flipBit flips one random bit of one random node's certificate.
func flipBit(certs map[graph.ID]bits.Certificate, rng *rand.Rand) map[graph.ID]bits.Certificate {
	out := make(map[graph.ID]bits.Certificate, len(certs))
	var victims []graph.ID
	for id, c := range certs {
		out[id] = c
		if c.Bits > 0 {
			victims = append(victims, id)
		}
	}
	if len(victims) == 0 {
		return out
	}
	victim := victims[rng.Intn(len(victims))]
	c := out[victim]
	data := append([]byte(nil), c.Data...)
	pos := rng.Intn(c.Bits)
	data[pos/8] ^= 1 << (7 - uint(pos%8))
	out[victim] = bits.Certificate{Data: data, Bits: c.Bits}
	return out
}

// swapTwo exchanges the certificates of two nodes with distinct streams.
func swapTwo(certs map[graph.ID]bits.Certificate, rng *rand.Rand) map[graph.ID]bits.Certificate {
	ids := make([]graph.ID, 0, len(certs))
	for id := range certs {
		ids = append(ids, id)
	}
	for trial := 0; trial < 100; trial++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b || certs[a].Equal(certs[b]) {
			continue
		}
		out := make(map[graph.ID]bits.Certificate, len(certs))
		for id, c := range certs {
			out[id] = c
		}
		out[a], out[b] = out[b], out[a]
		return out
	}
	return nil
}

func TestSequentialParallelIdenticalOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name   string
		scheme pls.Scheme
		g      *graph.Graph
	}{
		{"tree/grid", pls.SpanningTreeScheme{}, gen.ScrambleIDs(gen.Grid(8, 8), rng)},
		{"planar/triangulation", core.PlanarScheme{}, gen.StackedTriangulation(200, rng)},
		{"path/path", pls.PathScheme{}, gen.Path(40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			honest, err := tc.scheme.Prove(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			// Honest certificates, then a battery of corrupted ones: the
			// two modes must produce byte-identical outcomes on each.
			inputs := []map[graph.ID]bits.Certificate{honest, nil}
			for trial := 0; trial < 25; trial++ {
				inputs = append(inputs, flipBit(honest, rng))
			}
			for i, certs := range inputs {
				eng := engines(tc.g)
				a := eng["sequential"].RunPLS(certs, tc.scheme.Verify)
				b := eng["parallel"].RunPLS(certs, tc.scheme.Verify)
				sameOutcome(t, a, b)
				if i == 0 && !a.AllAccept() {
					t.Fatalf("honest certificates rejected: %v", a.Reasons)
				}
			}
		})
	}
}

func TestSwappedCertificatesRejectInBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.ScrambleIDs(gen.StackedTriangulation(120, rng), rng)
	scheme := core.PlanarScheme{}
	honest, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		swapped := swapTwo(honest, rng)
		if swapped == nil {
			t.Fatal("could not find two distinct certificates to swap")
		}
		for name, e := range engines(g) {
			out := e.RunPLS(swapped, scheme.Verify)
			if out.AllAccept() {
				t.Fatalf("%s: swapped certificates accepted (trial %d)", name, trial)
			}
		}
	}
}

func TestTamperedTreeCertRejectsInBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.ScrambleIDs(gen.Grid(6, 6), rng)
	scheme := pls.SpanningTreeScheme{}
	honest, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	ids := g.IDs()
	victim := ids[rng.Intn(len(ids))]
	dec, err := pls.DecodeTreeCert(honest[victim].Reader())
	if err != nil {
		t.Fatal(err)
	}
	dec.Dist += 2 // break the distance invariant at one node
	var w bits.Writer
	if err := dec.Encode(&w); err != nil {
		t.Fatal(err)
	}
	forged := make(map[graph.ID]bits.Certificate, len(honest))
	for id, c := range honest {
		forged[id] = c
	}
	forged[victim] = bits.FromWriter(&w)
	for name, e := range engines(g) {
		out := e.RunPLS(forged, scheme.Verify)
		if out.AllAccept() {
			t.Fatalf("%s: tampered distance accepted", name)
		}
	}
}

func TestFailFastAgreesOnAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.StackedTriangulation(150, rng)
	scheme := core.PlanarScheme{}
	honest, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	swapped := swapTwo(honest, rng)
	modes := map[string]*dist.Engine{
		"seq-failfast": dist.NewEngine(g, dist.Sequential(), dist.FailFast()),
		"par-failfast": dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(8), dist.FailFast()),
	}
	for name, e := range modes {
		if out := e.RunPLS(honest, scheme.Verify); !out.AllAccept() {
			t.Fatalf("%s: honest certificates rejected", name)
		}
		out := e.RunPLS(swapped, scheme.Verify)
		if out.AllAccept() {
			t.Fatalf("%s: swapped certificates accepted", name)
		}
		if _, reason, ok := out.FirstRejection(); !ok || reason == "" {
			t.Fatalf("%s: fail-fast outcome carries no rejection reason", name)
		}
	}
}

func TestVerifierPanicIsContained(t *testing.T) {
	g := gen.Grid(5, 5)
	bomb := g.IDOf(7)
	verify := func(v dist.View) error {
		if v.ID == bomb {
			panic("certificate decoder exploded")
		}
		return nil
	}
	for name, e := range engines(g) {
		out := e.RunPLS(nil, verify)
		if out.AllAccept() {
			t.Fatalf("%s: panicking node accepted", name)
		}
		if len(out.Rejecting) != 1 || out.Rejecting[0] != bomb {
			t.Fatalf("%s: rejecting = %v, want [%d]", name, out.Rejecting, bomb)
		}
		if !strings.Contains(out.Reasons[bomb], "panic") {
			t.Fatalf("%s: reason %q does not mention the panic", name, out.Reasons[bomb])
		}
	}
}

func TestOutcomeAccounting(t *testing.T) {
	g := gen.Cycle(10)
	scheme := pls.SpanningTreeScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	out := dist.RunPLS(g, certs, scheme.Verify)
	if out.Messages != 2*g.M() {
		t.Fatalf("messages = %d, want %d", out.Messages, 2*g.M())
	}
	if out.MaxMsgBit != out.MaxCertBit {
		t.Fatalf("max message %d != max cert %d", out.MaxMsgBit, out.MaxCertBit)
	}
	if out.AvgCertBits() <= 0 || out.AvgCertBits() > float64(out.MaxCertBit) {
		t.Fatalf("avg cert bits %f out of range", out.AvgCertBits())
	}
	if out.N != g.N() {
		t.Fatalf("N = %d, want %d", out.N, g.N())
	}
}

func TestEngineReuseResetsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ScrambleIDs(gen.Grid(6, 6), rng)
	scheme := pls.SpanningTreeScheme{}
	honest, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	e := dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(8))
	if out := e.RunPLS(nil, scheme.Verify); out.AllAccept() {
		t.Fatal("empty certificates accepted")
	}
	// The rejecting run above must leave no residue in the reused arena.
	if out := e.RunPLS(honest, scheme.Verify); !out.AllAccept() {
		t.Fatalf("honest run after rejecting run failed: %v", out.Reasons)
	}
	if out := e.RunPLS(nil, scheme.Verify); out.AllAccept() {
		t.Fatal("empty certificates accepted after honest run")
	}
}

func TestViewsAreCapped(t *testing.T) {
	// A verifier appending to its Neighbors slice must not clobber the
	// adjacent node's region of the shared arena.
	g := gen.Path(6)
	certs := map[graph.ID]bits.Certificate{}
	for _, id := range g.IDs() {
		certs[id] = bits.Certificate{Data: []byte{0xff}, Bits: 3}
	}
	verify := func(v dist.View) error {
		_ = append(v.Neighbors, dist.NeighborCert{ID: -1})
		return nil
	}
	e := dist.NewEngine(g, dist.Sequential())
	if out := e.RunPLS(certs, verify); !out.AllAccept() {
		t.Fatalf("append-happy verifier rejected: %v", out.Reasons)
	}
	// Re-run with a verifier that checks the arena is intact.
	check := func(v dist.View) error {
		for _, nb := range v.Neighbors {
			if nb.ID < 0 {
				t.Fatalf("node %d sees clobbered neighbor %d", v.ID, nb.ID)
			}
		}
		return nil
	}
	if out := e.RunPLS(certs, check); !out.AllAccept() {
		t.Fatal("arena integrity check rejected")
	}
}

func TestRoundDeliveryAndValidation(t *testing.T) {
	g := gen.Path(4) // 0-1-2-3
	e := dist.NewEngine(g)
	payload := bits.Certificate{Data: []byte{0xA0}, Bits: 4}
	inbox, err := e.Round(func(u int) map[int]bits.Certificate {
		if u == 1 {
			return map[int]bits.Certificate{0: payload, 2: payload}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inbox[0]) != 1 || len(inbox[2]) != 1 || len(inbox[1]) != 0 {
		t.Fatalf("unexpected deliveries: %v", inbox)
	}
	if inbox[0][0].From != 1 || inbox[0][0].FromID != g.IDOf(1) {
		t.Fatalf("wrong sender: %+v", inbox[0][0])
	}
	if !inbox[2][0].Cert.Equal(payload) {
		t.Fatal("payload corrupted in transit")
	}
	if e.Rounds != 1 || e.Messages != 2 || e.TotalBits != 8 || e.MaxMsgBit != 4 {
		t.Fatalf("accounting: rounds=%d msgs=%d bits=%d max=%d",
			e.Rounds, e.Messages, e.TotalBits, e.MaxMsgBit)
	}
	// CONGEST: messages only travel along edges — and a failed round
	// must not leak partial costs into the counters.
	if _, err := e.Round(func(u int) map[int]bits.Certificate {
		if u == 0 {
			return map[int]bits.Certificate{1: payload} // valid, staged
		}
		if u == 2 {
			return map[int]bits.Certificate{0: payload} // non-neighbor
		}
		return nil
	}); err == nil {
		t.Fatal("send to a non-neighbor was not rejected")
	}
	if e.Rounds != 1 || e.Messages != 2 || e.TotalBits != 8 || e.MaxMsgBit != 4 {
		t.Fatalf("failed round polluted counters: rounds=%d msgs=%d bits=%d max=%d",
			e.Rounds, e.Messages, e.TotalBits, e.MaxMsgBit)
	}
}

func TestBroadcast(t *testing.T) {
	g := gen.Path(8)
	e := dist.NewEngine(g)
	rounds, err := e.Broadcast([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 7 {
		t.Fatalf("rounds = %d, want 7 (path eccentricity)", rounds)
	}
	if e.Messages == 0 || e.TotalBits == 0 {
		t.Fatal("broadcast not accounted")
	}
	if r, err := dist.NewEngine(g).Broadcast([]int{3}); err != nil || r != 4 {
		t.Fatalf("middle source: rounds=%d err=%v, want 4", r, err)
	}
	if r, err := dist.NewEngine(g).Broadcast([]int{0, 7}); err != nil || r != 3 {
		t.Fatalf("two sources: rounds=%d err=%v, want 3 (both ends flood inward)", r, err)
	}
	single := graph.NewWithNodes(1)
	if r, err := dist.NewEngine(single).Broadcast([]int{0}); err != nil || r != 0 {
		t.Fatalf("single node: rounds=%d err=%v", r, err)
	}
	if _, err := dist.NewEngine(g).Broadcast(nil); err == nil {
		t.Fatal("no sources accepted")
	}
	if _, err := dist.NewEngine(g).Broadcast([]int{99}); err == nil {
		t.Fatal("unknown source accepted")
	}
	disc := graph.NewWithNodes(4)
	disc.MustAddEdge(0, 1)
	if _, err := dist.NewEngine(disc).Broadcast([]int{0}); err == nil {
		t.Fatal("disconnected broadcast did not fail")
	}
}

// TestEngineAllocationFree pins the zero-copy claim: with a trivial
// verifier, a whole RunPLS sweep on a reused engine performs O(1)
// allocations (the Outcome), not O(n) or O(m).
func TestEngineAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.StackedTriangulation(1024, rng)
	certs := map[graph.ID]bits.Certificate{}
	for _, id := range g.IDs() {
		certs[id] = bits.Certificate{Data: []byte{0x55}, Bits: 8}
	}
	verify := func(v dist.View) error { return nil }
	e := dist.NewEngine(g, dist.Sequential())
	e.RunPLS(certs, verify) // warm the layout
	allocs := testing.AllocsPerRun(20, func() {
		e.RunPLS(certs, verify)
	})
	if allocs > 4 {
		t.Fatalf("RunPLS allocates %.0f objects per sweep of 1024 nodes, want O(1)", allocs)
	}
}

// TestViewIndicesAndSweepIDs pins what a decode memo keyed by (sweep,
// node index) relies on: every view and neighbor entry carries the
// node's index in the engine's graph, every worker of one sweep sees
// one non-zero sweep id, and no two sweeps share an id — full and
// frontier sweeps, sequential and parallel, on one reused engine.
// Scratches outside a sweep report 0.
func TestViewIndicesAndSweepIDs(t *testing.T) {
	if id := (*dist.Scratch)(nil).Sweep(); id != 0 {
		t.Fatalf("nil scratch reports sweep %d", id)
	}
	if id := new(dist.Scratch).Sweep(); id != 0 {
		t.Fatalf("scratch built outside the engine reports sweep %d", id)
	}
	rng := rand.New(rand.NewSource(6))
	g := gen.ScrambleIDs(gen.Grid(6, 6), rng)
	seen := map[uint64]bool{}
	for name, e := range engines(g) {
		for _, subset := range []bool{false, true, false, true} {
			var mu sync.Mutex
			ids := map[uint64]bool{}
			verify := func(v dist.View) error {
				if g.IDOf(int(v.Idx)) != v.ID {
					t.Errorf("%s: view of node %d carries index %d", name, v.ID, v.Idx)
				}
				for _, nb := range v.Neighbors {
					if g.IDOf(int(nb.Idx)) != nb.ID {
						t.Errorf("%s: neighbor %d carries index %d", name, nb.ID, nb.Idx)
					}
				}
				mu.Lock()
				ids[v.Scratch.Sweep()] = true
				mu.Unlock()
				return nil
			}
			if subset {
				e.RunPLSSubset(nil, verify, []int{0, 5, 6, 7, 20, 35})
			} else {
				e.RunPLS(nil, verify)
			}
			if len(ids) != 1 || ids[0] {
				t.Fatalf("%s (subset %v): one sweep saw sweep ids %v, want one non-zero id", name, subset, ids)
			}
			for id := range ids {
				if seen[id] {
					t.Fatalf("%s: sweep id %d issued twice", name, id)
				}
				seen[id] = true
			}
		}
	}
}
