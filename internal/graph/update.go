package graph

// Op identifies one kind of topology update: the only edits a
// certified network undergoes. The numeric values double as the frozen
// 2-bit op codes of the binary wire format (internal/wire), so they
// must never change; the write-ahead log keeps its own 1-based codes
// (internal/wal).
type Op uint8

// Supported update operations.
const (
	OpAddEdge    Op = 0
	OpRemoveEdge Op = 1
	OpAddNode    Op = 2
)

// Valid reports whether o is one of the supported operations.
func (o Op) Valid() bool { return o <= OpAddNode }

// Update is one topology update. OpAddNode uses only A.
type Update struct {
	Op   Op
	A, B ID
}
