package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/gen"
)

// BenchmarkDecodePlanarCerts decodes a whole planarity assignment of a
// stacked triangulation into certificate objects, as a session does
// before its first repair after a restore or a cache adoption.
func BenchmarkDecodePlanarCerts(b *testing.B) {
	for _, n := range []int{30000} {
		g := gen.StackedTriangulation(n, rand.New(rand.NewSource(42)))
		_, certs, _, err := core.ProvePlanarFrom(g, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.DecodePlanarCerts(g, certs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
