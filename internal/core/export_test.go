package core

// CountDecodes counts planar certificate decodes until the returned
// stop function is called, which reports the count. Tests using it must
// not run in parallel with other planar verification.
func CountDecodes() (stop func() int) {
	n := 0
	decodeHook = func() { n++ }
	return func() int {
		decodeHook = nil
		return n
	}
}

// CheckRankBound is checkRankBound, the prover's size limit.
var CheckRankBound = checkRankBound
