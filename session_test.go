package planarcert_test

import (
	"math/rand"
	"testing"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
)

func triangulationNetwork(n int, seed int64) *planarcert.Network {
	rng := rand.New(rand.NewSource(seed))
	return planarcert.FromGraph(gen.StackedTriangulation(n, rng))
}

// TestSessionLifecycle exercises the public incremental API end to end:
// initial certification, localized repair, cache-backed flip and back.
func TestSessionLifecycle(t *testing.T) {
	net := triangulationNetwork(90, 11)
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Certified() || s.ActiveScheme() != planarcert.SchemePlanarity {
		t.Fatalf("initial state: %+v", s.Last())
	}
	if rep := s.Verify(); !rep.Accepted {
		t.Fatalf("initial full verify rejected: %v", rep.Reasons)
	}

	// The session owns a clone: mutating the original network is invisible.
	ids := net.IDs()
	net.RemoveEdge(ids[0], ids[1])
	if s.M() == net.M() {
		t.Fatal("session shares the caller's network")
	}

	// Oscillate an edge and demand at least one localized repair.
	sawRepair := false
	for _, a := range ids[:20] {
		for _, b := range s.Network().Neighbors(a) {
			rep, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(a, b)})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mode == "repair" {
				sawRepair = true
				if rep.FullVerify || rep.Verified >= s.N() {
					t.Fatalf("repair re-verified the whole network: %+v", rep)
				}
			}
			if _, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(a, b)}); err != nil {
				t.Fatal(err)
			}
			if !s.Certified() {
				t.Fatalf("lost certification on oscillation of {%d,%d}", a, b)
			}
			break
		}
		if sawRepair {
			break
		}
	}
	if !sawRepair {
		t.Fatal("no oscillation was absorbed as a localized repair")
	}

	// Parity: the session state verifies exactly like a fresh pipeline.
	if rep := s.Verify(); !rep.Accepted {
		t.Fatalf("session state rejected: %v", rep.Reasons)
	}
	fresh, err := planarcert.CertifyAndVerify(s.Network(), s.ActiveScheme())
	if err != nil || !fresh.Accepted {
		t.Fatalf("fresh certification disagrees: %v %v", err, fresh)
	}
}

// TestSessionFlipPublic drives the session across the planarity
// boundary through the public API.
func TestSessionFlipPublic(t *testing.T) {
	net := planarcert.NewNetwork()
	for id := planarcert.NodeID(0); id < 5; id++ {
		if err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for a := planarcert.NodeID(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			if a == 0 && b == 1 {
				continue // K5 minus one edge: planar
			}
			if err := net.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "flip" || s.ActiveScheme() != planarcert.SchemeNonPlanarity || !rep.Accepted {
		t.Fatalf("completing K5: %+v", rep)
	}
	rep, err = s.Apply([]planarcert.Update{planarcert.EdgeRemove(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveScheme() != planarcert.SchemePlanarity || !rep.Accepted {
		t.Fatalf("rolling back: %+v", rep)
	}
	if rep.Mode != "cache" {
		t.Fatalf("rollback should hit the certificate cache, got %s", rep.Mode)
	}
}

// TestCertifyReturnsDefensiveCopies is the regression test for the
// aliasing bug class: callers mutating a returned Certificates map (or
// the bytes inside) must not corrupt later certifications or a
// session's internal state.
func TestCertifyReturnsDefensiveCopies(t *testing.T) {
	net := triangulationNetwork(40, 12)
	certs1, err := planarcert.Certify(net, planarcert.SchemePlanarity)
	if err != nil {
		t.Fatal(err)
	}
	// Trash every byte the caller can reach.
	for id, c := range certs1 {
		for i := range c.Data {
			c.Data[i] = 0xff
		}
		c.Bits = 1
		certs1[id] = c
	}
	certs2, err := planarcert.Certify(net, planarcert.SchemePlanarity)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := planarcert.Verify(net, planarcert.SchemePlanarity, certs2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("mutation of an earlier result corrupted a fresh certification: %v", rep.Reasons)
	}
}

// TestSessionCertificatesDefensiveCopies checks the same property on
// the session, whose internals genuinely retain certificate state.
func TestSessionCertificatesDefensiveCopies(t *testing.T) {
	net := triangulationNetwork(40, 13)
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stolen := s.Certificates()
	for id, c := range stolen {
		for i := range c.Data {
			c.Data[i] ^= 0xaa
		}
		stolen[id] = c
	}
	if rep := s.Verify(); !rep.Accepted {
		t.Fatalf("mutating Certificates() corrupted the session: %v", rep.Reasons)
	}
	// And the copy really is a snapshot of valid certificates.
	fresh := s.Certificates()
	rep, err := planarcert.Verify(s.Network(), s.ActiveScheme(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatalf("Certificates() snapshot does not verify: %v", rep.Reasons)
	}
}

// TestSessionQueueFlushPublic checks the update-log API.
func TestSessionQueueFlushPublic(t *testing.T) {
	net := planarcert.NewNetwork()
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Certified() {
		t.Fatal("empty network reported certified")
	}
	// Grow a triangle through the log.
	for id := planarcert.NodeID(0); id < 3; id++ {
		if err := s.Queue(planarcert.NodeAdd(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]planarcert.NodeID{{0, 1}, {1, 2}, {2, 0}} {
		if err := s.Queue(planarcert.EdgeAdd(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if s.N() != 0 {
		t.Fatal("Queue applied updates early")
	}
	rep, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || s.N() != 3 || s.M() != 3 {
		t.Fatalf("triangle growth: %+v (n=%d m=%d)", rep, s.N(), s.M())
	}
}

// TestUnknownUpdateOpRejected pins that an out-of-range op never
// reaches the update log or the wire: Queue rejects it, Apply rejects
// the whole batch while leaving the previously queued log and the
// network untouched, and EncodeUpdatesFrame refuses to emit it.
func TestUnknownUpdateOpRejected(t *testing.T) {
	net := planarcert.NewNetwork()
	for id := planarcert.NodeID(0); id < 4; id++ {
		if err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]planarcert.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := net.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []planarcert.UpdateOp{3, 255} {
		s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		bad := planarcert.Update{Op: op, A: 0, B: 2}
		if err := s.Queue(bad); err == nil {
			t.Fatalf("op %d: Queue accepted an unknown op", op)
		}
		if err := s.Queue(planarcert.EdgeAdd(0, 2)); err != nil {
			t.Fatal(err)
		}
		gen, m := s.Generation(), s.M()
		if _, err := s.Apply([]planarcert.Update{planarcert.EdgeAdd(1, 3), bad}); err == nil {
			t.Fatalf("op %d: Apply accepted an unknown op", op)
		}
		if s.Generation() != gen || s.M() != m {
			t.Fatalf("op %d: rejected Apply touched the network (gen %d->%d, m %d->%d)", op, gen, s.Generation(), m, s.M())
		}
		// The chord queued before the rejected Apply is still the whole log.
		rep, err := s.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Updates != 1 || s.M() != m+1 || !rep.Accepted {
			t.Fatalf("op %d: queued log not intact after rejected Apply: %+v (m=%d)", op, rep, s.M())
		}
		if _, err := planarcert.EncodeUpdatesFrame("apply", []planarcert.Update{bad}); err == nil {
			t.Fatalf("op %d: EncodeUpdatesFrame accepted an unknown op", op)
		}
	}
}

// TestSessionSnapshotRestore round-trips a session through its
// restorable snapshot: the restored session adopts the certificates via
// the self-validating full sweep and keeps absorbing batches.
func TestSessionSnapshotRestore(t *testing.T) {
	net := triangulationNetwork(120, 7)
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := s.Network().IDs()
	if _, err := s.Apply([]planarcert.Update{planarcert.EdgeRemove(ids[0], s.Network().Neighbors(ids[0])[0])}); err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if snap.Generation != s.Generation() || snap.Network.M() != s.M() {
		t.Fatalf("snapshot disagrees with session: %+v", snap)
	}

	r, err := planarcert.RestoreSession(snap, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Certified() {
		t.Fatalf("restored session uncertified: %+v", r.Last())
	}
	if mode := r.Last().Mode; mode != "restore" {
		t.Fatalf("restore mode = %q, want restore (certificates were valid)", mode)
	}
	if r.Generation() != snap.Generation {
		t.Fatalf("generation %d, want %d", r.Generation(), snap.Generation)
	}
	hi1, lo1 := s.Fingerprint()
	hi2, lo2 := r.Fingerprint()
	if hi1 != hi2 || lo1 != lo2 {
		t.Fatalf("fingerprint mismatch after restore: %x%x vs %x%x", hi1, lo1, hi2, lo2)
	}
	if rep := r.Verify(); !rep.Accepted {
		t.Fatalf("restored session fails full verification: %v", rep.Reasons)
	}
	// The restored session keeps working.
	rep, err := r.Apply([]planarcert.Update{planarcert.NodeAdd(100000), planarcert.EdgeAdd(100000, ids[0])})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted || !r.Certified() {
		t.Fatalf("post-restore batch rejected: %+v", rep)
	}
}

// TestSessionRestoreRejectsTamperedCerts flips bits in a snapshot's
// certificates: the self-validating sweep must reject them and the
// restore must fall back to a re-prove, never accepting a bad
// assignment.
func TestSessionRestoreRejectsTamperedCerts(t *testing.T) {
	net := triangulationNetwork(80, 3)
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	for id, c := range snap.Certificates {
		if len(c.Data) > 0 {
			c.Data[0] ^= 0xff
			snap.Certificates[id] = c
		}
		break
	}
	r, err := planarcert.RestoreSession(snap, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mode := r.Last().Mode; mode == "restore" {
		t.Fatal("tampered certificates restored verbatim")
	}
	if !r.Certified() {
		t.Fatalf("re-prove fallback failed: %+v", r.Last())
	}
	if rep := r.Verify(); !rep.Accepted {
		t.Fatalf("fallback assignment rejected: %v", rep.Reasons)
	}
}

// TestSessionRestoreStaleCerts restores certificates against a network
// that moved on (the replay-tail case): the sweep decides, and either
// way the session ends certified with an accepted assignment.
func TestSessionRestoreStaleCerts(t *testing.T) {
	net := triangulationNetwork(80, 5)
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	// Simulate a WAL tail: the graph gained a node + edge after the
	// snapshot's certificates were taken.
	if err := snap.Network.AddNode(99999); err != nil {
		t.Fatal(err)
	}
	if err := snap.Network.AddEdge(99999, snap.Network.IDs()[0]); err != nil {
		t.Fatal(err)
	}
	r, err := planarcert.RestoreSession(snap, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Certified() {
		t.Fatalf("stale restore left session uncertified: %+v", r.Last())
	}
	if rep := r.Verify(); !rep.Accepted {
		t.Fatalf("post-restore assignment rejected: %v", rep.Reasons)
	}
	if r.N() != 81 {
		t.Fatalf("restored network lost the tail: n=%d", r.N())
	}
}

// TestSessionRestoreAfterFlip restores a session whose active scheme
// differs from its configured scheme (planarity flipped to the
// Kuratowski witness scheme).
func TestSessionRestoreAfterFlip(t *testing.T) {
	net := planarcert.NewNetwork()
	for id := planarcert.NodeID(0); id < 6; id++ {
		if err := net.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for a := planarcert.NodeID(0); a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			if err := net.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ActiveScheme() != planarcert.SchemeNonPlanarity {
		t.Fatalf("K6 did not flip: %v", s.ActiveScheme())
	}
	snap := s.Snapshot()
	r, err := planarcert.RestoreSession(snap, planarcert.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.ActiveScheme() != planarcert.SchemeNonPlanarity || !r.Certified() {
		t.Fatalf("flip lost in restore: scheme=%v certified=%v", r.ActiveScheme(), r.Certified())
	}
	if mode := r.Last().Mode; mode != "restore" {
		t.Fatalf("restore mode = %q, want restore", mode)
	}
}
