package dist

import (
	"sync"
	"sync/atomic"
)

// Scratch is the per-worker decode arena of a verification sweep. The
// engine hands every worker goroutine its own Scratch and attaches it to
// each View the worker verifies, so a scheme verifier can decode
// certificates into reusable slabs instead of fresh maps and slices per
// node; its neighbor buffer does the same for the view assembly itself.
// A Scratch is owned by exactly one worker for the duration of a sweep
// and returned to the engine's pool afterwards; nothing in it survives
// a sweep semantically, only the backing memory does.
//
// Scheme-specific state lives in keyed slots: a verifier calls Slot with
// a key unique to the scheme (an empty struct type works well), lazily
// installing its decode state with SetSlot on first use. Slots persist
// across nodes and sweeps — that is the point — so schemes must treat
// everything inside as garbage on entry and must never let state decoded
// for one node influence the verdict of another (the decode-parity and
// scratch-reuse fuzz suites enforce this). The one exception is the pure
// decode of a certificate: the engine stamps each borrowed Scratch with
// its sweep's id (Sweep) and node count (Nodes), and within one sweep a
// node index names one certificate, so a decode keyed by (Sweep(), node
// index) may serve every view of that sweep, from a table sized once.
//
// All methods are nil-safe: a nil *Scratch (a View built outside the
// engine, e.g. by direct Verify calls or the interactive protocols)
// reports empty slots, and schemes fall back to fresh allocation.
type Scratch struct {
	// nbrBuf backs the Neighbors slice of the view being verified; every
	// sweep assembles its views from the live graph into it.
	nbrBuf []NeighborCert

	sweep uint64 // id of the sweep holding this scratch; 0 outside one
	nodes int    // node count of that sweep's graph; 0 outside a sweep
	slots []scratchSlot
}

// sweeps hands out sweep ids; 0 is never issued, so it means "no sweep".
var sweeps atomic.Uint64

// Sweep returns the process-wide unique id of the engine sweep that
// currently holds s, or 0 for a nil Scratch and for one built outside
// the engine. Two views carrying Scratches with the same non-zero Sweep
// belong to the same sweep, where a node index (View.Idx,
// NeighborCert.Idx) names exactly one certificate.
func (s *Scratch) Sweep() uint64 {
	if s == nil {
		return 0
	}
	return s.sweep
}

// Nodes returns the node count of the graph of the sweep that currently
// holds s: every node index a view of that sweep carries (View.Idx,
// NeighborCert.Idx) is below it, full and frontier sweeps alike. It is
// 0 wherever Sweep is.
func (s *Scratch) Nodes() int {
	if s == nil {
		return 0
	}
	return s.nodes
}

type scratchSlot struct {
	key any
	val any
}

// Slot returns the value stored under key, or nil when absent (or when
// s itself is nil).
func (s *Scratch) Slot(key any) any {
	if s == nil {
		return nil
	}
	for _, sl := range s.slots {
		if sl.key == key {
			return sl.val
		}
	}
	return nil
}

// SetSlot stores val under key, replacing any previous value. Calling
// SetSlot on a nil Scratch is a no-op (the caller keeps its fresh
// state for the single call it serves).
func (s *Scratch) SetSlot(key, val any) {
	if s == nil {
		return
	}
	for i := range s.slots {
		if s.slots[i].key == key {
			s.slots[i].val = val
			return
		}
	}
	s.slots = append(s.slots, scratchSlot{key: key, val: val})
}

// neighbors returns a length-n NeighborCert buffer owned by the scratch,
// growing it when needed. The buffer is reused across nodes within a
// worker, so callers must finish with one view before assembling the
// next (verifiers must not retain Neighbors). The slice is capped, so a
// verifier appending to it gets a copy.
func (s *Scratch) neighbors(n int) []NeighborCert {
	if cap(s.nbrBuf) < n {
		s.nbrBuf = make([]NeighborCert, n)
	}
	return s.nbrBuf[:n:n]
}

// ScratchPool is a free list of Scratches shared by the verification
// engines of one logical owner (a session, a server, a benchmark). Each
// RunPLS or RunPLSSubset call borrows one Scratch per worker and returns
// it when the sweep ends, so steady-state sweeps allocate no decode
// state at all. Pools are safe for concurrent use; a single Engine owns
// a private pool unless WithScratch installs a shared one — sessions
// install a shared pool so the scratch survives the short-lived engines
// they build per batch.
type ScratchPool struct {
	p sync.Pool
}

// NewScratchPool returns an empty pool.
func NewScratchPool() *ScratchPool {
	sp := &ScratchPool{}
	sp.p.New = func() any { return &Scratch{} }
	return sp
}

// get borrows a scratch for the sweep with the given id over a graph
// of the given node count.
func (sp *ScratchPool) get(sweep uint64, nodes int) *Scratch {
	s := sp.p.Get().(*Scratch)
	s.sweep, s.nodes = sweep, nodes
	return s
}

func (sp *ScratchPool) put(s *Scratch) {
	s.sweep, s.nodes = 0, 0
	sp.p.Put(s)
}

// WithScratch makes the engine borrow worker scratch from pool instead
// of a private one, sharing decode arenas across the many short-lived
// engines a long-lived owner builds (see ScratchPool).
func WithScratch(pool *ScratchPool) Option {
	return func(e *Engine) {
		if pool != nil {
			e.scratch = pool
		}
	}
}
