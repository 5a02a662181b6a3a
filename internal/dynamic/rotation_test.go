package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
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
