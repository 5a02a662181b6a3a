package dist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/qos"
)

// TestBudgetFairShareSimulation drives a fully contended 1-slot Budget
// through a scripted closed loop — every grant and release is
// sequenced by the test, with no sleeps and no clock — and checks that
// each claimant's share of grants lands within ±10% of what its QoS
// weight assigns. Two workers per claimant, and a wait for the previous
// holder to re-queue before each handoff, keep every claimant
// backlogged at each handoff, so the measured shares are the
// scheduler's decisions, not arrival-timing artifacts.
func TestBudgetFairShareSimulation(t *testing.T) {
	cases := []struct {
		name    string
		weights map[qos.Class]int
		mix     []qos.Class
	}{
		{"default-one-per-class", nil,
			[]qos.Class{qos.Interactive, qos.Batch, qos.Background}},
		{"flat", map[qos.Class]int{qos.Interactive: 1, qos.Batch: 1, qos.Background: 1},
			[]qos.Class{qos.Interactive, qos.Batch, qos.Background}},
		{"repair-vs-storms", nil,
			[]qos.Class{qos.Interactive, qos.Background, qos.Background, qos.Background}},
		{"5-3-1", map[qos.Class]int{qos.Interactive: 5, qos.Batch: 3, qos.Background: 1},
			[]qos.Class{qos.Interactive, qos.Batch, qos.Batch, qos.Background}},
	}
	const (
		rounds  = 1500
		perClmt = 2 // workers per claimant: one can hold while one stays queued
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBudgetWeights(1, tc.weights)
			seed := b.Claimant("seed", qos.Batch)
			if !seed.TryAcquire() {
				t.Fatal("seed hold failed")
			}
			claimants := make([]*qos.Claimant, len(tc.mix))
			for i, class := range tc.mix {
				claimants[i] = b.Claimant("sim", class)
			}
			nworkers := perClmt * len(claimants)
			served := make(chan int) // worker id that just got the slot
			resume := make([]chan struct{}, nworkers)
			quit := make(chan struct{})
			var stopped atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < nworkers; w++ {
				resume[w] = make(chan struct{})
				wg.Add(1)
				go func(w int, c *qos.Claimant) {
					defer wg.Done()
					for {
						if !c.AcquireWait(0, quit) {
							return
						}
						served <- w
						<-resume[w]
						c.Release()
						if stopped.Load() {
							return
						}
					}
				}(w, claimants[w/perClmt])
			}
			// Let every worker queue up before the first handoff so the
			// counted trace starts from a fully backlogged scheduler.
			for b.Scheduler().QueueDepth() < nworkers {
				runtime.Gosched()
			}
			seed.Release()
			counts := make([]int, len(claimants))
			var sumW float64
			for _, class := range tc.mix {
				sumW += float64(b.Scheduler().Weight(class))
			}
			for i := 0; i < rounds; i++ {
				w := <-served
				counts[w/perClmt]++
				// The previous holder re-queues on its own goroutine after
				// its release. Hand off only once it has, so every other
				// worker is waiting again; otherwise its claimant can briefly
				// have no waiter and lose a turn the scheduler owes it.
				for b.Scheduler().QueueDepth() < nworkers-1 {
					runtime.Gosched()
				}
				resume[w] <- struct{}{}
			}
			// Shut the loop down deterministically: served workers now
			// exit after release instead of re-queueing, and waiters
			// abandon on quit.
			stopped.Store(true)
			close(quit)
			allDone := make(chan struct{})
			go func() { wg.Wait(); close(allDone) }()
			for draining := true; draining; {
				select {
				case w := <-served:
					resume[w] <- struct{}{}
				case <-allDone:
					draining = false
				}
			}
			for i, c := range claimants {
				if counts[i] == 0 {
					t.Fatalf("claimant %d (%s) starved: 0 of %d grants", i, c.Class(), rounds)
				}
				want := float64(b.Scheduler().Weight(c.Class())) / sumW
				got := float64(counts[i]) / rounds
				if diff := got - want; diff > 0.1*want+0.01 || -diff > 0.1*want+0.01 {
					t.Errorf("claimant %d (%s, weight %d): share %.4f of grants, want %.4f +/- 10%%",
						i, c.Class(), b.Scheduler().Weight(c.Class()), got, want)
				}
			}
		})
	}
}

// TestLimitClaimantBoundsParallelism checks that per-claimant limiting
// preserves the Budget progress guarantee: engines under LimitClaimant
// still complete with the pool exhausted (worker 0 is unbudgeted).
func TestLimitClaimantBoundsParallelism(t *testing.T) {
	b := NewBudget(1)
	hog := b.Claimant("hog", qos.Background)
	if !hog.TryAcquire() {
		t.Fatal("exhausting the budget failed")
	}
	defer hog.Release()
	g := gen.Grid(8, 8)
	eng := NewEngine(g, Parallel(4), ShardSize(8), LimitClaimant(b.Claimant("run", qos.Interactive)))
	out := eng.RunPLS(map[graph.ID]bits.Certificate{}, func(v View) error { return nil })
	if len(out.Rejecting) != 0 {
		t.Fatalf("unexpected rejections: %v", out.Rejecting)
	}
	if out.N != g.N() {
		t.Fatalf("verified %d nodes, want %d", out.N, g.N())
	}
}
