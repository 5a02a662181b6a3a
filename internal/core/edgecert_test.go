package core_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// TestEdgeCertLayout pins the in-memory edge certificate at 72 bytes
// with no pointer-bearing field, so its slabs stay small and are never
// scanned by the garbage collector.
func TestEdgeCertLayout(t *testing.T) {
	if sz := unsafe.Sizeof(core.EdgeCert{}); sz > 72 {
		t.Fatalf("EdgeCert is %d bytes, want at most 72", sz)
	}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: EdgeCert must hold no pointers", path, ty.Kind())
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(core.EdgeCert{}), "EdgeCert")
}

// TestProveRankBound: the prover refuses networks whose ranks (up to
// 2n) would not fit an EdgeCert's 32-bit fields, instead of truncating.
func TestProveRankBound(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{{1, true}, {1<<30 - 1, true}, {1 << 30, false}, {1 << 40, false}} {
		err := core.CheckRankBound(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("n=%d: err = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

// TestEdgeCertRankOverflowRejected: a certificate that claims N = 2^40
// has 41-bit ranks, so it can carry a rank of 2^31, which no honest
// certificate holds and an int32 cannot. Decoding must reject it on
// the fresh path (sweep id 0) and on the engine's sweep-memo path.
func TestEdgeCertRankOverflowRejected(t *testing.T) {
	g := graph.NewWithNodes(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	scheme := core.PlanarScheme{}
	certs, err := scheme.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := g.IDOf(0)
	honest, err := core.DecodePlanarCert(certs[victim].Reader())
	if err != nil {
		t.Fatal(err)
	}
	tree := honest.Tree
	tree.N = 1 << 40
	var w bits.Writer
	if err := tree.Encode(&w); err != nil {
		t.Fatal(err)
	}
	rw := bits.WidthFor(2 * tree.N)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WriteUint(1, 3)) // one edge certificate: cotree {0, 1}
	w.WriteBit(false)
	must(w.WriteVar(uint64(g.IDOf(0))))
	must(w.WriteVar(uint64(g.IDOf(1))))
	for _, r := range []uint64{1 << 31, 2, 0, 5, 0, 5} { // ranks, then intervals
		must(w.WriteUint(r, rw))
	}
	forged := make(map[graph.ID]bits.Certificate, len(certs))
	for id, c := range certs {
		forged[id] = c
	}
	forged[victim] = bits.FromWriter(&w)

	const want = "rank 2147483648 exceeds 2147483647"
	if _, err := core.DecodePlanarCert(forged[victim].Reader()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodePlanarCert: err = %v, want %q", err, want)
	}
	for _, v := range viewsOf(g, forged) { // nil Scratch: sweep id 0
		if err := scheme.Verify(v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("node %d, fresh decode: err = %v, want %q", v.ID, err, want)
		}
	}
	eng := dist.NewEngine(g, dist.Sequential())
	for sweep := 0; sweep < 2; sweep++ {
		out := eng.RunPLS(forged, scheme.Verify)
		for _, id := range g.IDs() {
			if r := out.Reasons[id]; !strings.Contains(r, want) {
				t.Fatalf("sweep %d, node %d: reason %q, want %q", sweep, id, r, want)
			}
		}
	}
	if !pls.RunWithCerts(scheme, g, certs).AllAccept() {
		t.Fatal("honest certificates rejected")
	}
}
