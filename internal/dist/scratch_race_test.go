package dist_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
)

// TestScratchWorkerLocalHammer proves, under the race detector, that
// verification scratch is worker-local: a full parallel RunPLSAll sweep
// (whose workers all borrow from one ScratchPool) runs while many
// goroutines hammer RunPLSSubset frontier calls on the same engine, and
// a second engine — sharing the same pool, the way dynamic sessions
// share one pool across the engines they build — sweeps concurrently.
// Any scratch state crossing a worker boundary is a data race the -race
// build reports; any decode residue crossing nodes flips a verdict on
// honest certificates.
func TestScratchWorkerLocalHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := gen.StackedTriangulation(256, rng)
	scheme := core.PlanarScheme{}
	byID, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	certs := dist.ByIndex(g, byID)
	pool := dist.NewScratchPool()
	eng := dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(8), dist.WithScratch(pool))
	other := dist.NewEngine(g, dist.Parallel(4), dist.ShardSize(8), dist.WithScratch(pool))

	const rounds = 30
	var wg sync.WaitGroup
	fail := make(chan string, 64)

	// One full sweep at a time per engine (the Engine contract), looped;
	// its internal workers already share the pool concurrently.
	for name, e := range map[string]*dist.Engine{"eng": eng, "other": other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if out := e.RunPLSAll(certs, scheme.Verify); !out.AllAccept() {
					fail <- name + ": full sweep rejected honest certificates"
					return
				}
			}
		}()
	}
	// Concurrent frontier calls on the first engine: a sweep keeps no
	// state in the engine, so it may overlap full sweeps.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]int, 0, 32)
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				sub = sub[:0]
				for k := 0; k < 32; k++ {
					sub = append(sub, r.Intn(g.N()))
				}
				if out := eng.RunPLSSubset(certs, scheme.Verify, sub); !out.AllAccept() {
					fail <- "frontier sweep rejected honest certificates"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
