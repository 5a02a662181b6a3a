package planarcert_test

import (
	"bytes"
	"testing"

	planarcert "github.com/planarcert/planarcert"
)

// FuzzEdgeListRoundTrip checks ParseEdgeList <-> WriteEdgeList: any
// parseable input must survive a write+reparse with the identical node
// set and adjacency (the two networks are isomorphic on identifiers).
func FuzzEdgeListRoundTrip(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n2 0\n"))
	f.Add([]byte("# comment\n5\n\n3 4\n"))
	f.Add([]byte("-1 -2\n-2 9223372036854775807\n"))
	f.Add([]byte("7\n7 8\n8 7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("bound the parse work")
		}
		net, err := planarcert.ParseEdgeList(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := net.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write failed on a parsed network: %v", err)
		}
		net2, err := planarcert.ParseEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse failed: %v\nwritten:\n%s", err, buf.Bytes())
		}
		if net2.N() != net.N() || net2.M() != net.M() {
			t.Fatalf("round trip changed size: n %d->%d, m %d->%d",
				net.N(), net2.N(), net.M(), net2.M())
		}
		for _, id := range net.IDs() {
			a := net.Neighbors(id)
			b := net2.Neighbors(id)
			if len(a) != len(b) {
				t.Fatalf("node %d: degree %d -> %d", id, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("node %d: neighbors %v -> %v", id, a, b)
				}
			}
		}
	})
}

// FuzzSessionApply drives a Session with an arbitrary update stream on
// a small identifier space and checks the determinism-parity invariant
// after every absorbed batch: the session verifies iff it claims to be
// certified, a certified state verifies exactly like a fresh
// Certify+Verify of the same graph, and the repair state rebuilt from
// the certificates equals the live one. A third of the ops attach a new
// leaf, so repairs that grow n in place are driven too.
func FuzzSessionApply(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 1, 0, 3})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 240 {
			t.Skip("bound the stream length")
		}
		net := planarcert.NewNetwork()
		const nodes = 8
		for id := planarcert.NodeID(0); id < nodes; id++ {
			if err := net.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		for id := planarcert.NodeID(1); id < nodes; id++ {
			if err := net.AddEdge(id-1, id); err != nil {
				t.Fatal(err)
			}
		}
		s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, planarcert.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		leaf := planarcert.NodeID(nodes)
		for i := 0; i+2 < len(data); i += 3 {
			a := planarcert.NodeID(data[i+1] % nodes)
			b := planarcert.NodeID(data[i+2] % nodes)
			var batch []planarcert.Update
			switch data[i] % 3 {
			case 0:
				batch = []planarcert.Update{planarcert.EdgeAdd(a, b)}
			case 1:
				batch = []planarcert.Update{planarcert.EdgeRemove(a, b)}
			default:
				batch = []planarcert.Update{planarcert.NodeAdd(leaf), planarcert.EdgeAdd(leaf, a)}
				leaf++
			}
			if _, err := s.Apply(batch); err != nil {
				continue // structurally invalid update, rejected wholesale
			}
			if got := s.Verify().Accepted; got != s.Certified() {
				t.Fatalf("step %d: Verify=%v but Certified=%v", i, got, s.Certified())
			}
			if err := planarcert.CheckRepairState(s); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if s.Certified() {
				fresh, err := planarcert.CertifyAndVerify(s.Network(), s.ActiveScheme())
				if err != nil || !fresh.Accepted {
					t.Fatalf("step %d: fresh %s pipeline disagrees: %v", i, s.ActiveScheme(), err)
				}
			} else if s.N() > 0 && s.Network().Connected() {
				t.Fatalf("step %d: uncertified on a connected graph", i)
			}
		}
	})
}
