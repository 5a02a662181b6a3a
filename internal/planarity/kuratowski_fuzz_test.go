package planarity_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
)

// fuzzGraph decodes data into a graph on at most 10 nodes: the first
// byte picks the node count, and every later byte picks one of the node
// pairs, added as an edge unless already present. The byte order is the
// insertion order, so it also drives the adjacency order the LR test's
// DFS follows.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(0)
	}
	n := 1 + int(data[0])%10
	g := graph.NewWithNodes(n)
	pairs := n * (n - 1) / 2
	if pairs == 0 {
		return g
	}
	for _, b := range data[1:] {
		// Decode pair index p into u < v: row u holds n-1-u pairs.
		p, u := int(b)%pairs, 0
		for p >= n-1-u {
			p -= n - 1 - u
			u++
		}
		if v := u + 1 + p; !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// FuzzKuratowski checks both answers of the LR test on small graphs: a
// planar graph has no witness and its rotation passes the Euler audit; a
// non-planar graph yields a witness that passes the independent check,
// and the same witness from a tester that never compacts.
func FuzzKuratowski(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})                        // K5
	f.Add([]byte{5, 2, 3, 4, 6, 7, 8, 9, 10, 11})                         // K3,3
	f.Add([]byte{9, 0, 9, 17, 24, 30, 35, 39, 42, 44, 1, 10, 18, 25, 31}) // path plus chords
	f.Add([]byte{7, 200, 13, 77, 5, 90, 31, 250, 8, 64, 19, 101, 3, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		ok, rot, err := planarity.Check(g)
		if err != nil {
			t.Fatalf("Check: %v", err)
		}
		w, kerr := planarity.Kuratowski(g)
		if ok {
			if !errors.Is(kerr, planarity.ErrPlanarInput) {
				t.Fatalf("planar graph: Kuratowski err = %v, want ErrPlanarInput", kerr)
			}
			audit, err := rot.IsPlanar(g)
			if err != nil || !audit {
				t.Fatalf("planar graph: rotation fails the Euler audit (ok=%v err=%v) on %v", audit, err, g)
			}
			return
		}
		if kerr != nil {
			t.Fatalf("non-planar graph: Kuratowski: %v", kerr)
		}
		if err := checkWitness(g, w); err != nil {
			t.Fatalf("non-planar graph %v: %v witness fails the independent check: %v", g, w.Kind, err)
		}
		plain, err := planarity.KuratowskiUncompacted(g)
		if err != nil || !reflect.DeepEqual(w, plain) {
			t.Fatalf("non-planar graph %v: compacted and uncompacted testers disagree (err %v):\n%+v\n%+v", g, err, w, plain)
		}
	})
}
