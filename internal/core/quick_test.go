package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// randomNestedChords produces a random valid (non-crossing) chord set
// over ranks 1..n by recursive splitting — a generator for property
// tests of the interval machinery.
func randomNestedChords(n int, rng *rand.Rand) []graph.Edge {
	var chords []graph.Edge
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		if rng.Intn(2) == 0 {
			chords = append(chords, graph.Edge{U: lo, V: hi})
		}
		mid := lo + 1 + rng.Intn(hi-lo-1)
		split(lo, mid)
		split(mid, hi)
	}
	split(1, n)
	return chords
}

// TestQuickIntervalsMatchBruteForce: for every valid chord family, the
// sweep's intervals equal the brute-force shortest strict cover.
func TestQuickIntervalsMatchBruteForce(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%40)
		rng := rand.New(rand.NewSource(seed))
		chords := randomNestedChords(n, rng)
		ivs, err := ComputeIntervals(n, chords)
		if err != nil {
			return false // generator guarantees validity
		}
		for x := 1; x <= n; x++ {
			want := Sentinel(n)
			for _, e := range chords {
				if e.U < x && x < e.V && e.V-e.U < want.B-want.A {
					want = Interval{A: e.U, B: e.V}
				}
			}
			if ivs[x] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHonestPOViewsAccept: Algorithm 1 accepts every honest view of
// every valid chord family (completeness of Lemma 2 as a property).
func TestQuickHonestPOViewsAccept(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 1 + int(size%30)
		rng := rand.New(rand.NewSource(seed))
		chords := randomNestedChords(n, rng)
		ivs, err := ComputeIntervals(n, chords)
		if err != nil {
			return false
		}
		for x := 1; x <= n; x++ {
			if err := VerifyPONode(honestPOView(n, x, chords, ivs)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrossingAlwaysDetected: adding one crossing chord to a valid
// family is always detected by the sweep, matching the pairwise checker.
func TestQuickCrossingAlwaysDetected(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 6 + int(size%30)
		rng := rand.New(rand.NewSource(seed))
		chords := randomNestedChords(n, rng)
		// Try random extra chords until one crosses per the pairwise rule.
		for attempt := 0; attempt < 50; attempt++ {
			a := 1 + rng.Intn(n-2)
			b := a + 2 + rng.Intn(n-a-1)
			extra := graph.Edge{U: a, V: b}
			all := append(append([]graph.Edge(nil), chords...), extra)
			pairErr := CheckWitnessPairwise(all)
			_, sweepErr := ComputeIntervals(n, all)
			if (pairErr == nil) != (sweepErr == nil) {
				return false // the two checkers must agree exactly
			}
			if pairErr != nil {
				return true // found and agreed on a crossing
			}
		}
		return true // no crossing found; nothing to disagree about
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransformInvariants: on random planar graphs the transform
// always yields 2n-1 ranks, a valid witness, and an exact round trip.
func TestQuickTransformInvariants(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 2 + int(size%40)
		rng := rand.New(rand.NewSource(seed))
		maxM := 3*n - 6
		m := n - 1
		if maxM > m {
			m += rng.Intn(maxM - m + 1)
		}
		g, err := gen.RandomPlanar(n, m, rng)
		if err != nil {
			return false
		}
		tr, err := TransformOf(g)
		if err != nil {
			return false
		}
		if tr.N2 != 2*n-1 {
			return false
		}
		if CheckWitnessPairwise(tr.chords()) != nil {
			return false
		}
		if _, err := tr.ContractBack(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPlanarCertRoundTrip: encode/decode is the identity on
// structurally valid certificates.
func TestQuickPlanarCertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(2 + rng.Intn(1000))
		c := &PlanarCert{
			Tree: pls.TreeCert{
				SelfID: graph.ID(rng.Intn(10000)),
				RootID: graph.ID(rng.Intn(10000)),
				N:      n,
				Dist:   uint64(rng.Intn(int(n))),
				Parent: graph.ID(rng.Intn(10000)),
				Size:   uint64(1 + rng.Intn(int(n))),
			},
		}
		n2 := int(2*n - 1)
		iv := func() Interval32 { return Interval32{A: int32(rng.Intn(n2)), B: int32(rng.Intn(n2 + 2))} }
		for i := 0; i < rng.Intn(MaxEdgeCerts+1); i++ {
			ec := EdgeCert{U: graph.ID(rng.Intn(10000)), V: graph.ID(rng.Intn(10000))}
			if rng.Intn(2) == 0 {
				pa := int32(1 + rng.Intn(n2-2))
				cmax := pa + 1 + int32(rng.Intn(n2-int(pa)-1))
				ec.IsTree = true
				ec.Rank = [4]int32{pa, pa + 1, cmax, cmax + 1}
				ec.Iv = [4]Interval32{iv(), iv(), iv(), iv()}
			} else {
				ec.Rank = [4]int32{int32(1 + rng.Intn(n2)), int32(1 + rng.Intn(n2))}
				ec.Iv = [4]Interval32{iv(), iv()}
			}
			c.Edges = append(c.Edges, ec)
		}
		var w bits.Writer
		if err := c.Encode(&w); err != nil {
			return false
		}
		dec, err := DecodePlanarCert(bits.FromWriter(&w).Reader())
		if err != nil {
			return false
		}
		if dec.Tree != c.Tree || len(dec.Edges) != len(c.Edges) {
			return false
		}
		for i := range c.Edges {
			if dec.Edges[i] != c.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNonPlanarCertRoundTrip covers the Kuratowski certificate
// codec the same way.
func TestQuickNonPlanarCertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k5 := rng.Intn(2) == 0
		branches := 6
		if k5 {
			branches = 5
		}
		c := &NonPlanarCert{
			Tree: pls.TreeCert{
				SelfID: graph.ID(rng.Intn(10000)),
				RootID: graph.ID(rng.Intn(10000)),
				N:      uint64(1 + rng.Intn(1000)),
				Dist:   uint64(rng.Intn(100)),
				Parent: graph.ID(rng.Intn(10000)),
				Size:   uint64(1 + rng.Intn(100)),
			},
			K5:   k5,
			Role: Role(rng.Intn(3)),
		}
		for i := 0; i < branches; i++ {
			c.BranchIDs = append(c.BranchIDs, graph.ID(rng.Intn(10000)))
		}
		switch c.Role {
		case RoleBranch:
			c.BranchIdx = uint8(rng.Intn(branches))
		case RoleInterior:
			c.PathA = uint8(rng.Intn(branches - 1))
			c.PathB = c.PathA + 1
			c.Pos = uint64(1 + rng.Intn(50))
			c.PrevID = graph.ID(rng.Intn(10000))
			c.NextID = graph.ID(rng.Intn(10000))
		}
		var w bits.Writer
		if err := c.Encode(&w); err != nil {
			return false
		}
		dec, err := DecodeNonPlanarCert(bits.FromWriter(&w).Reader())
		if err != nil {
			return false
		}
		if dec.Tree != c.Tree || dec.K5 != c.K5 || dec.Role != c.Role {
			return false
		}
		for i := range c.BranchIDs {
			if dec.BranchIDs[i] != c.BranchIDs[i] {
				return false
			}
		}
		if c.Role == RoleInterior {
			if dec.PathA != c.PathA || dec.PathB != c.PathB || dec.Pos != c.Pos ||
				dec.PrevID != c.PrevID || dec.NextID != c.NextID {
				return false
			}
		}
		if c.Role == RoleBranch && dec.BranchIdx != c.BranchIdx {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
