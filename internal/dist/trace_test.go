package dist

import (
	"reflect"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// sweepOf finds the first sweep child recorded under root.
func sweepOf(t *testing.T, root *obs.Span) *obs.Span {
	t.Helper()
	for _, c := range root.Children() {
		if c.Name() == obs.SpanSweep {
			return c
		}
	}
	t.Fatalf("no sweep span under %q (children %v)", root.Name(), root.Children())
	return nil
}

func TestWithSpanRecordsSweepAndBudgetWait(t *testing.T) {
	tr := obs.New(obs.Config{Ring: 4})
	root := tr.Start("test", obs.SpanBatch)
	g := gen.Grid(20, 20)
	e := NewEngine(g, Parallel(4), ShardSize(16), WithSpan(root))
	certs := map[graph.ID]bits.Certificate{g.IDOf(0): {Bits: 8}}
	out := e.RunPLS(certs, func(v View) error { return nil })
	root.End()

	sweep := sweepOf(t, root)
	if m, _ := sweep.StrAttr("mode"); m != "full" {
		t.Fatalf("sweep mode = %q, want full", m)
	}
	if n, _ := sweep.IntAttr("nodes"); n != int64(g.N()) {
		t.Fatalf("sweep nodes = %d, want %d", n, g.N())
	}
	if cb, _ := sweep.IntAttr("cert_bits"); cb != int64(out.TotalCertBits) {
		t.Fatalf("sweep cert_bits = %d, want %d", cb, out.TotalCertBits)
	}
	if ms, _ := sweep.IntAttr("messages"); ms != int64(out.Messages) {
		t.Fatalf("sweep messages = %d, want %d", ms, out.Messages)
	}
	var bw *obs.Span
	for _, c := range sweep.Children() {
		if c.Name() == obs.SpanBudgetWait {
			bw = c
		}
	}
	if bw == nil {
		t.Fatal("parallel sweep recorded no budget-wait child")
	}
	wanted, _ := bw.IntAttr("wanted")
	granted, _ := bw.IntAttr("granted")
	denied, _ := bw.IntAttr("denied")
	if wanted != 3 || granted != 3 || denied != 0 {
		t.Fatalf("unbudgeted acquisition = %d/%d/%d, want 3/3/0", wanted, granted, denied)
	}
}

func TestWithSpanRecordsSubsetSweep(t *testing.T) {
	tr := obs.New(obs.Config{Ring: 4})
	root := tr.Start("test", obs.SpanBatch)
	g := gen.Grid(10, 10)
	e := NewEngine(g, Sequential(), WithSpan(root))
	idxs := []int{0, 1, 2, 3, 4}
	e.RunPLSSubset(map[graph.ID]bits.Certificate{}, func(v View) error { return nil }, idxs)
	root.End()

	sweep := sweepOf(t, root)
	if m, _ := sweep.StrAttr("mode"); m != "subset" {
		t.Fatalf("sweep mode = %q, want subset", m)
	}
	if f, _ := sweep.IntAttr("frontier"); f != int64(len(idxs)) {
		t.Fatalf("sweep frontier = %d, want %d", f, len(idxs))
	}
}

func TestRoundAndBroadcastSpans(t *testing.T) {
	tr := obs.New(obs.Config{Ring: 4})
	root := tr.Start("test", obs.SpanBatch)
	g := gen.Path(4)
	e := NewEngine(g, WithSpan(root))
	_, err := e.Round(func(u int) map[int]bits.Certificate {
		if u == 0 {
			return map[int]bits.Certificate{1: {Data: []byte{0xA0}, Bits: 3}}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Broadcast([]int{0}); err != nil {
		t.Fatal(err)
	}
	root.End()

	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != obs.SpanRound || kids[1].Name() != obs.SpanBroadcast {
		t.Fatalf("children = %v, want [round broadcast]", kids)
	}
	if idx, _ := kids[0].IntAttr("index"); idx != 0 {
		t.Fatalf("round index = %d, want 0", idx)
	}
	if ms, _ := kids[0].IntAttr("messages"); ms != 1 {
		t.Fatalf("round messages = %d, want 1", ms)
	}
	if bits, _ := kids[0].IntAttr("bits"); bits != 3 {
		t.Fatalf("round bits = %d, want 3", bits)
	}
	if r, _ := kids[1].IntAttr("rounds"); r != 3 {
		t.Fatalf("broadcast rounds = %d, want 3 (path of 4)", r)
	}
}

func TestWithSpanOutcomeParity(t *testing.T) {
	g := gen.Grid(12, 12)
	certs := map[graph.ID]bits.Certificate{g.IDOf(5): {Bits: 4}}
	verify := func(v View) error { return nil }
	plain := NewEngine(g, Parallel(4), ShardSize(8)).RunPLS(certs, verify)
	tr := obs.New(obs.Config{Ring: 2})
	root := tr.Start("s", obs.SpanBatch)
	traced := NewEngine(g, Parallel(4), ShardSize(8), WithSpan(root)).RunPLS(certs, verify)
	root.End()
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the outcome:\nplain  %+v\ntraced %+v", plain, traced)
	}
}
