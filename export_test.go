package planarcert

// CheckRepairState reports whether the session's repair state, rebuilt
// from its certificates, differs from the live, incrementally patched
// one.
func CheckRepairState(s *Session) error { return s.d.CheckRepairState() }
