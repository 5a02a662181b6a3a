package dist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
)

// TestBudgetBoundsFleetParallelism runs several engines concurrently
// against a tiny shared budget and checks the fleet-wide worker
// invariant: with S slots and E concurrent runs, at most S+E verifier
// goroutines are ever in flight (one unbudgeted worker per run plus one
// per slot).
func TestBudgetBoundsFleetParallelism(t *testing.T) {
	const (
		engines = 4
		slots   = 2
	)
	b := NewBudget(slots)
	if b.Slots() != slots {
		t.Fatalf("Slots() = %d, want %d", b.Slots(), slots)
	}

	var inFlight, peak atomic.Int64
	verify := func(v View) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond) // widen the overlap window
		inFlight.Add(-1)
		return nil
	}

	g := gen.Grid(40, 40)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(g, Parallel(8), ShardSize(16), Limit(b))
			out := e.RunPLS(map[graph.ID]bits.Certificate{}, func(v View) error { return verify(v) })
			if out.N != g.N() {
				t.Errorf("outcome covers %d nodes, want %d", out.N, g.N())
			}
		}()
	}
	wg.Wait()

	if got, want := int(peak.Load()), engines+slots; got > want {
		t.Fatalf("peak concurrent verifications = %d, want <= %d (engines %d + slots %d)", got, want, engines, slots)
	}
	if b.InUse() != 0 {
		t.Fatalf("budget leaked %d slots", b.InUse())
	}
}

// TestBudgetBoundsSubsetParallelism pins the same S+E invariant on the
// frontier-verification path (RunPLSSubset), which the planarcertd
// repair/cache flushes drive far more often than full sweeps.
func TestBudgetBoundsSubsetParallelism(t *testing.T) {
	const (
		engines = 4
		slots   = 2
	)
	b := NewBudget(slots)
	var inFlight, peak atomic.Int64
	g := gen.Grid(40, 40)
	idxs := make([]int, g.N())
	for i := range idxs {
		idxs[i] = i
	}
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(g, Parallel(8), ShardSize(16), Limit(b))
			out := e.RunPLSSubset(nil, func(v View) error {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(50 * time.Microsecond)
				inFlight.Add(-1)
				return nil
			}, idxs)
			if out.N != g.N() {
				t.Errorf("subset outcome covers %d nodes, want %d", out.N, g.N())
			}
		}()
	}
	wg.Wait()
	if got, want := int(peak.Load()), engines+slots; got > want {
		t.Fatalf("peak concurrent subset verifications = %d, want <= %d", got, want)
	}
	if b.InUse() != 0 {
		t.Fatalf("budget leaked %d slots", b.InUse())
	}
}

// TestBudgetExhaustedStillCompletes pins the progress guarantee: a
// budget whose slots are all held cannot stall a verification — the
// run degrades to its single unbudgeted worker and still covers every
// node with the same outcome.
func TestBudgetExhaustedStillCompletes(t *testing.T) {
	b := NewBudget(1)
	if !b.tryAcquire() {
		t.Fatal("fresh budget refused a slot")
	}
	defer b.release()

	g := gen.Grid(20, 20)
	e := NewEngine(g, Parallel(4), ShardSize(8), Limit(b))
	var calls atomic.Int64
	out := e.RunPLS(map[graph.ID]bits.Certificate{}, func(v View) error {
		calls.Add(1)
		return nil
	})
	if out.N != g.N() || int(calls.Load()) != g.N() {
		t.Fatalf("exhausted-budget run verified %d/%d nodes", calls.Load(), g.N())
	}
	if b.InUse() != 1 {
		t.Fatalf("run disturbed foreign slot accounting: in use %d, want 1", b.InUse())
	}
}
