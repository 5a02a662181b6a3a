package core_test

import (
	"math/rand"
	"testing"

	"github.com/planarcert/planarcert/internal/bits"
	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dist"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/pls"
)

// FuzzScratchReuse is the fuzzing arm of the decode-parity battery:
// decode an arbitrary certificate at node A into a worker scratch, then
// verify node B with the same (now dirty) scratch, and require B's
// verdict to match a fresh-scratch and a no-scratch run. Any residue a
// decode leaves behind — stale slab entries, unreset rank-map
// generations, aliased slices — surfaces as a verdict difference.
func FuzzScratchReuse(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	fixtures := []struct {
		scheme pls.Scheme
		g      *graph.Graph
	}{
		{core.PlanarScheme{}, gen.Grid(3, 3)},
		{core.OuterplanarScheme{}, gen.RandomOuterplanar(9, 0.6, rng)},
		{core.NonPlanarScheme{}, gen.Complete(5)},
		{core.POScheme{}, gen.RandomPathOuterplanar(9, 0.5, rng)},
		{pls.SpanningTreeScheme{}, gen.Grid(3, 3)},
	}
	type fixture struct {
		scheme pls.Scheme
		views  []dist.View
	}
	var fixed []fixture
	for _, fx := range fixtures {
		honest, err := fx.scheme.Prove(fx.g)
		if err != nil {
			f.Fatalf("prover for %s: %v", fx.scheme.Name(), err)
		}
		fixed = append(fixed, fixture{scheme: fx.scheme, views: viewsOf(fx.g, honest)})
	}
	// Seed with the honest certificates themselves and a few mangled ones.
	for si, fx := range fixed {
		a := fx.views[0].Cert
		b := fx.views[len(fx.views)-1].Cert
		f.Add(uint8(si), uint8(0), uint8(len(fx.views)-1),
			a.Data, uint16(a.Bits), b.Data, uint16(b.Bits))
		f.Add(uint8(si), uint8(1), uint8(1), []byte{0xFF, 0x00}, uint16(13), a.Data, uint16(a.Bits))
	}
	clamp := func(data []byte, nbits uint16) bits.Certificate {
		n := int(nbits)
		if max := len(data) * 8; n > max {
			n = max
		}
		return bits.Certificate{Data: data, Bits: n}
	}
	f.Fuzz(func(t *testing.T, sel, na, nb uint8, dataA []byte, bitsA uint16, dataB []byte, bitsB uint16) {
		if len(dataA) > 256 || len(dataB) > 256 {
			t.Skip("bound the decode work")
		}
		fx := fixed[int(sel)%len(fixed)]
		viewA := fx.views[int(na)%len(fx.views)]
		viewB := fx.views[int(nb)%len(fx.views)]
		viewA.Cert = clamp(dataA, bitsA)
		viewB.Cert = clamp(dataB, bitsB)

		// Dirty a scratch with node A's decode, then verify B on it.
		sc := new(dist.Scratch)
		viewA.Scratch = sc
		_ = verdictOf(fx.scheme, viewA)
		viewB.Scratch = sc
		reused := verdictOf(fx.scheme, viewB)

		// Baselines: a never-used scratch, and the no-scratch fresh path.
		viewB.Scratch = new(dist.Scratch)
		fresh := verdictOf(fx.scheme, viewB)
		viewB.Scratch = nil
		alloc := verdictOf(fx.scheme, viewB)

		if reused != fresh {
			t.Fatalf("%s: reused-scratch verdict %q != fresh-scratch verdict %q",
				fx.scheme.Name(), reused, fresh)
		}
		if fresh != alloc {
			t.Fatalf("%s: scratch verdict %q != allocating verdict %q",
				fx.scheme.Name(), fresh, alloc)
		}
	})
}

// FuzzSweepMemo is the fuzzing arm of the per-sweep decode memo: it
// overwrites the certificates of one or two nodes of a small honest
// assignment with fuzzed bytes and requires the sequential and the
// parallel engine sweep, both on one pool shared by every input, to
// report the same rejecting nodes and reasons as verifying each node
// alone with no scratch. A memo entry that leaks across sweeps, a
// cached decode error returned at the wrong point, or a decode shared
// between nodes surfaces as an Outcome difference.
func FuzzSweepMemo(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	fixtures := []struct {
		scheme pls.Scheme
		g      *graph.Graph
	}{
		{core.PlanarScheme{}, gen.ScrambleIDs(gen.Grid(3, 4), rng)},
		{core.PlanarScheme{}, gen.ScrambleIDs(gen.StackedTriangulation(24, rng), rng)},
		{core.OuterplanarScheme{}, gen.ScrambleIDs(gen.RandomOuterplanar(12, 0.6, rng), rng)},
	}
	honest := make([]map[graph.ID]bits.Certificate, len(fixtures))
	for i, fx := range fixtures {
		certs, err := fx.scheme.Prove(fx.g)
		if err != nil {
			f.Fatalf("prover for %s: %v", fx.scheme.Name(), err)
		}
		honest[i] = certs
	}
	for si, fx := range fixtures {
		a := honest[si][fx.g.IDOf(0)]
		b := honest[si][fx.g.IDOf(1)]
		// Two nodes swap certificates; one node gets garbage; a node
		// keeps its own certificate (an honest sweep).
		f.Add(uint8(si), uint8(0), uint8(1), b.Data, uint16(b.Bits), a.Data, uint16(a.Bits))
		f.Add(uint8(si), uint8(2), uint8(2), []byte{0xFF, 0x00, 0x13}, uint16(21), a.Data, uint16(a.Bits))
		f.Add(uint8(si), uint8(0), uint8(0), a.Data, uint16(a.Bits), a.Data, uint16(a.Bits))
	}
	clamp := func(data []byte, nbits uint16) bits.Certificate {
		n := int(nbits)
		if max := len(data) * 8; n > max {
			n = max
		}
		return bits.Certificate{Data: data, Bits: n}
	}
	pool := dist.NewScratchPool()
	f.Fuzz(func(t *testing.T, sel, na, nb uint8, dataA []byte, bitsA uint16, dataB []byte, bitsB uint16) {
		if len(dataA) > 256 || len(dataB) > 256 {
			t.Skip("bound the decode work")
		}
		si := int(sel) % len(fixtures)
		fx := fixtures[si]
		certs := make(map[graph.ID]bits.Certificate, len(honest[si]))
		for id, c := range honest[si] {
			certs[id] = c
		}
		certs[fx.g.IDOf(int(na)%fx.g.N())] = clamp(dataA, bitsA)
		if int(nb)%fx.g.N() != int(na)%fx.g.N() {
			certs[fx.g.IDOf(int(nb)%fx.g.N())] = clamp(dataB, bitsB)
		}
		want := freshVerdicts(fx.scheme, fx.g, certs)
		all := make([]int, fx.g.N())
		for u := range all {
			all[u] = u
		}
		for _, opts := range sweepOpts(pool) {
			checkOutcome(t, fx.g, all, want, dist.NewEngine(fx.g, opts...).RunPLS(certs, fx.scheme.Verify))
		}
	})
}
