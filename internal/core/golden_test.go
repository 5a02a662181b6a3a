package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/planarity"
)

// TestGoldenRotationAndCertificates pins, byte for byte, the rotation
// system planarity.Check returns and the certificates PlanarScheme.Prove
// assigns on fixed seeded graphs. A change to the LR test or the prover
// that alters either output fails here, so rewrites of those hot paths
// must reproduce today's bytes exactly.
func TestGoldenRotationAndCertificates(t *testing.T) {
	randomPlanar := func() *graph.Graph {
		g, err := gen.RandomPlanar(1000, 1800, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		rotation string
		certs    string
	}{
		{"stacked-2000", gen.StackedTriangulation(2000, rand.New(rand.NewSource(1))),
			"c96b85e8e8d3cc5839ec9e0e826cad8e2a7cd33695a45282b815655975e65c15",
			"ee4d6ec3f47ccff731a9395b4a89d373427df6f673e1c4d44875a42b0c1a3f27"},
		{"random-planar-1000", randomPlanar(),
			"5787777391a26b98af68e40aa5b6a145b37b2fbc4051de0de6d10e895d25466a",
			"b9e7d7ee25f400d0b389d05a40d3df286ddab85a5bc34dc85ddb2f2c2df3decd"},
		{"wheel-1024", gen.Wheel(1024),
			"752e1491f9765a6c6b59123d9e8a74cbf7b5455ebcf40f4a1d6c3d113d6dee2a",
			"c2fdc6c678f006d305f937568d79747d8f81920d3e445b0bb936db6d9679b278"},
		{"grid-40x50", gen.Grid(40, 50),
			"0377facc367a30cac49faea63ce4f1b809e9eb8a5d8d2b7de3deff888504c0ca",
			"ecca0396e3a2858532093a9c6daa55b95900f82575821aad35bd1c796b8e4fd6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ok, rot, err := planarity.Check(tc.g)
			if err != nil || !ok {
				t.Fatalf("Check: ok=%v err=%v", ok, err)
			}
			h := sha256.New()
			for _, order := range rot.Order {
				h.Write(binary.AppendUvarint(nil, uint64(len(order))))
				for _, w := range order {
					h.Write(binary.AppendUvarint(nil, uint64(w)))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.rotation {
				t.Errorf("rotation hash = %s, want %s", got, tc.rotation)
			}

			certs, err := core.PlanarScheme{}.Prove(tc.g)
			if err != nil {
				t.Fatalf("Prove: %v", err)
			}
			h.Reset()
			ids := make([]graph.ID, 0, len(certs))
			for id := range certs {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for _, id := range ids {
				c := certs[id]
				h.Write(binary.AppendVarint(nil, int64(id)))
				h.Write(binary.AppendUvarint(nil, uint64(c.Bits)))
				h.Write(c.Data)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.certs {
				t.Errorf("certificate hash = %s, want %s", got, tc.certs)
			}
		})
	}
}
