package dist

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/qos"
)

// mode selects how RunPLS schedules the per-node verifications.
type mode int

const (
	// modeAuto picks parallel execution when the machine has more than
	// one processor and the network is large enough to amortise the
	// worker handoff; small inputs run sequentially.
	modeAuto mode = iota
	// modeSequential verifies nodes 0..n-1 on the calling goroutine.
	modeSequential
	// modeParallel always fans out across the worker pool.
	modeParallel
)

// defaultShardSize is the number of consecutive node indices a worker
// claims at a time. Shards keep the atomic handoff off the per-node path
// while staying small enough to balance skewed degree distributions
// (a wheel hub's verification costs ~n times a rim node's).
const defaultShardSize = 128

// Engine simulates a synchronous CONGEST network over a graph.
// It serves two roles: the sharded verification executor for
// proof-labeling schemes (RunPLS), and a general synchronous
// message-passing simulator with bit-exact cost accounting (Round,
// Broadcast) used by the distributed preprocessing phase.
//
// The exported counters accumulate across Round and Broadcast calls.
// RunPLS reports its (single) round's costs in the returned Outcome
// instead, so verification sweeps do not perturb preprocessing accounts.
//
// Every sweep reads the live graph, so an Engine stays valid after the
// graph mutates. Engines are not safe for concurrent use — the
// parallelism is inside a sweep, not across calls.
type Engine struct {
	// Rounds counts synchronous rounds executed via Round/Broadcast.
	Rounds int
	// Messages counts individual node-to-node messages.
	Messages int
	// TotalBits sums the sizes of all messages sent.
	TotalBits int
	// MaxMsgBit is the largest single message, in bits.
	MaxMsgBit int

	g *graph.Graph

	mode      mode
	workers   int
	shardSize int
	failFast  bool
	claim     *qos.Claimant
	span      *obs.Span
	scratch   *ScratchPool
}

// Option configures an Engine at construction.
type Option func(*Engine)

// Sequential forces single-goroutine verification.
func Sequential() Option { return func(e *Engine) { e.mode = modeSequential } }

// Parallel forces worker-pool verification with the given number of
// workers; workers <= 0 keeps the default of GOMAXPROCS.
func Parallel(workers int) Option {
	return func(e *Engine) {
		e.mode = modeParallel
		if workers > 0 {
			e.workers = workers
		}
	}
}

// Workers bounds the worker pool without forcing a mode (0 keeps the
// default of GOMAXPROCS); in automatic mode the bound also decides
// whether fanning out is worthwhile.
func Workers(workers int) Option {
	return func(e *Engine) {
		if workers > 0 {
			e.workers = workers
		}
	}
}

// ShardSize sets how many consecutive nodes a worker claims per handoff.
func ShardSize(s int) Option {
	return func(e *Engine) {
		if s > 0 {
			e.shardSize = s
		}
	}
}

// FailFast makes a sweep stop scheduling work once any node has rejected.
// The Outcome then reports at least one rejecting node (and agrees with
// exhaustive mode on acceptance), but may omit later rejections.
func FailFast() Option { return func(e *Engine) { e.failFast = true } }

// Exhaustive restores the default: every node is verified and every
// rejection is reported, making sequential and parallel Outcomes
// identical.
func Exhaustive() Option { return func(e *Engine) { e.failFast = false } }

// WithSpan attaches a parent tracing span to the engine: every sweep
// records a sweep child span (node/frontier count, certificate bits,
// messages, rejections) with a nested budget-wait child accounting slot
// acquisition, and Round/Broadcast record per-call spans with round
// index, message count, and bit cost. A nil span — the default —
// records nothing and costs nothing beyond a pointer test (obs spans
// are nil-safe).
func WithSpan(sp *obs.Span) Option { return func(e *Engine) { e.span = sp } }

// NewEngine builds an engine over g. The default configuration is
// automatic mode selection, GOMAXPROCS workers, exhaustive reporting.
func NewEngine(g *graph.Graph, opts ...Option) *Engine {
	e := &Engine{
		g:         g,
		workers:   runtime.GOMAXPROCS(0),
		shardSize: defaultShardSize,
	}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	return e
}

// scratchPool returns the engine's scratch pool, creating a private one
// on first use when WithScratch did not install a shared pool.
func (e *Engine) scratchPool() *ScratchPool {
	if e.scratch == nil {
		e.scratch = NewScratchPool()
	}
	return e.scratch
}

func (e *Engine) parallel(n int) bool {
	switch e.mode {
	case modeSequential:
		return false
	case modeParallel:
		return true
	default:
		return e.workers > 1 && n >= 2*e.shardSize
	}
}

// fanOut drains nshards shards across worker 0 plus up to workers-1
// extra workers; verifyShard handles one shard with the worker's own
// Scratch and reports whether the sweep should stop early (fail-fast).
// Each worker borrows exactly one Scratch from the engine's pool for
// the whole drain, stamped with the drain's one sweep id, so scratch
// state is worker-local by construction and a sweep's scratch traffic
// is O(workers), not O(nodes). Worker 0 always runs, so an exhausted
// budget degrades the sweep to sequential execution instead of
// stalling it; every extra worker needs a free budget slot at spawn
// time (see Limit). The acquisition outcome is recorded on sweep's
// budget-wait child span as wanted/granted/denied slot counts, and the
// span's duration measures the acquisition.
func (e *Engine) fanOut(nshards int, sweep *obs.Span, verifyShard func(s int, sc *Scratch) bool) {
	workers := e.workers
	if workers > nshards {
		workers = nshards
	}
	pool := e.scratchPool()
	id := sweeps.Add(1)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	loop := func() {
		sc := pool.get(id, e.g.N())
		defer pool.put(sc)
		for {
			if e.failFast && stop.Load() {
				return
			}
			s := int(next.Add(1)) - 1
			if s >= nshards {
				return
			}
			if verifyShard(s, sc) {
				stop.Store(true)
				return
			}
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		loop()
	}()

	bw := sweep.Child(obs.SpanBudgetWait)
	if e.claim != nil {
		bw.SetStr("class", e.claim.Class().String())
	}
	wanted := workers - 1
	if wanted < 0 {
		wanted = 0
	}
	granted := 0
	for w := 1; w < workers; w++ {
		if e.claim != nil && !e.claim.TryAcquire() {
			break
		}
		budgeted := e.claim != nil
		granted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if budgeted {
				defer e.claim.Release()
			}
			loop()
		}()
	}
	bw.SetInt("wanted", int64(wanted))
	bw.SetInt("granted", int64(granted))
	bw.SetInt("denied", int64(wanted-granted))
	bw.End()
	wg.Wait()
}

// verifyView runs one node's local decision, containing panics (a
// corrupted certificate must never take down the simulator — the
// corruption battery feeds arbitrary bitstreams through every decoder).
func verifyView(id graph.ID, view View, verify func(View) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: verifier panicked at node %d: %v", id, r)
		}
	}()
	return verify(view)
}
