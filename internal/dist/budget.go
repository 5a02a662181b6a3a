package dist

import "github.com/planarcert/planarcert/internal/qos"

// Budget is a shared, bounded pool of verification-worker slots. Many
// engines — one per live server session, for example — can draw their
// parallel fan-out from one Budget so that the process-wide number of
// extra verification goroutines stays bounded no matter how many
// verifications run at once.
//
// The bound applies to *extra* workers only: every RunPLS keeps one
// worker regardless of slot availability, so a verification never
// blocks on (or deadlocks through) the budget — an exhausted budget
// degrades a run to sequential execution instead of stalling it. With
// S slots and E concurrent engine runs the fleet therefore uses at
// most S+E verification goroutines.
//
// Since the fair-share rework, a Budget is a thin veneer over a
// qos.Scheduler: contended slots are handed out by weighted fair
// queueing across per-consumer claimants instead of FIFO, so one
// consumer's storm of sweeps cannot monopolise the pool (see
// Claimant and LimitClaimant). Engines configured with plain Limit
// share one anonymous batch-class claimant and behave like the old
// semaphore, except that slot handout under contention is fair.
//
// A Budget is safe for concurrent use. The zero *Budget (nil) means
// unlimited: engines without a budget size their pools by Workers and
// GOMAXPROCS alone.
type Budget struct {
	s    *qos.Scheduler
	anon *qos.Claimant
}

// NewBudget returns a budget with the given number of extra-worker
// slots and default QoS weights. Slots below 1 are clamped to 1 so a
// budget always admits some parallelism.
func NewBudget(slots int) *Budget {
	return NewBudgetWeights(slots, nil)
}

// NewBudgetWeights returns a budget with the given slot count (clamped
// up to 1) and per-class fair-share weights; missing classes take
// qos.DefaultWeights.
func NewBudgetWeights(slots int, weights map[qos.Class]int) *Budget {
	s := qos.NewScheduler(slots, weights)
	return &Budget{s: s, anon: s.Claimant("shared", qos.Batch)}
}

// Scheduler exposes the underlying fair-share scheduler (per-class
// grant counters, queue depth) for metrics exporters.
func (b *Budget) Scheduler() *qos.Scheduler { return b.s }

// Claimant mints a named consumer identity in the given QoS class;
// engines configured with LimitClaimant(c) compete for the budget's
// slots under c's weight. One claimant per server session is the
// intended granularity.
func (b *Budget) Claimant(name string, class qos.Class) *qos.Claimant {
	return b.s.Claimant(name, class)
}

// Slots returns the configured slot count.
func (b *Budget) Slots() int { return b.s.Slots() }

// InUse returns the number of slots currently held.
func (b *Budget) InUse() int { return b.s.InUse() }

// tryAcquire takes one slot for the shared anonymous claimant if one is
// available and no fair-queue waiter is pending; it never blocks.
func (b *Budget) tryAcquire() bool { return b.anon.TryAcquire() }

// release returns a slot taken by tryAcquire.
func (b *Budget) release() { b.anon.Release() }

// Limit makes the engine draw its extra parallel workers from the
// shared budget: worker 0 of each RunPLS always runs, workers 1..k-1
// each need a free slot at spawn time and return theirs when the run
// completes. Engines sharing a Budget thus degrade gracefully toward
// sequential execution under load instead of oversubscribing the
// machine. The engine competes as the budget's shared batch-class
// claimant; use LimitClaimant to compete under a per-session identity
// and QoS class.
func Limit(b *Budget) Option {
	return func(e *Engine) {
		if b != nil {
			e.claim = b.anon
		}
	}
}

// LimitClaimant makes the engine draw its extra workers from the
// scheduler behind c (see Budget.Claimant): under contention, freed
// slots are granted to the waiting claimant with the smallest
// virtual time, so each session's sweeps receive the share its QoS
// class weight assigns. A nil claimant leaves the engine unlimited.
func LimitClaimant(c *qos.Claimant) Option {
	return func(e *Engine) { e.claim = c }
}
