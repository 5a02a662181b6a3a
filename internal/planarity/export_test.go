package planarity

import "github.com/planarcert/planarcert/internal/graph"

// KuratowskiUncompacted is Kuratowski on a tester that never compacts.
func KuratowskiUncompacted(g *graph.Graph) (*Witness, error) {
	return kuratowski(g, false)
}

// KuratowskiUnnarrowed is Kuratowski without narrow: halving block
// deletion starts from every edge of g.
func KuratowskiUnnarrowed(g *graph.Graph) (*Witness, error) {
	st := newLR(g)
	planar, err := st.planar()
	if err != nil {
		return nil, err
	}
	if planar {
		return nil, ErrPlanarInput
	}
	return st.extract(true)
}

// ForceRegionPlanar makes Kuratowski read the region where the LR test
// fails as planar, so it keeps every edge, until restore is called. Tests
// using it must not run in parallel with other extractions.
func ForceRegionPlanar() (restore func()) {
	regionPlanar = true
	return func() { regionPlanar = false }
}

// CountTests counts planarity tests and the tester edges they scan until
// the returned stop function is called, which reports both. Tests using
// it must not run in parallel with other planarity tests.
func CountTests() (stop func() (tests, scanned int)) {
	tests, scanned := 0, 0
	testHook = func(m int) {
		tests++
		scanned += m
	}
	return func() (int, int) {
		testHook = nil
		return tests, scanned
	}
}
