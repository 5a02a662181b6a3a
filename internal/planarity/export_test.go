package planarity

import "github.com/planarcert/planarcert/internal/graph"

// KuratowskiUncompacted is Kuratowski on a tester that never compacts.
func KuratowskiUncompacted(g *graph.Graph) (*Witness, error) {
	return kuratowski(g, false)
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
