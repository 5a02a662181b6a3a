package planarcert_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/gen"
)

// detStream is a seeded update stream over a maximal planar network:
// mostly one-edge removals and re-adds (repairs and re-proves; at most
// four edges are missing at a time), with an occasional chord between
// two non-adjacent nodes, which makes the network non-planar and flips
// the scheme until the chord is removed again.
type detStream struct {
	rng     *rand.Rand
	base    [][2]planarcert.NodeID // the original edges
	removed []int                  // indices into base currently absent
	chord   *[2]planarcert.NodeID  // the non-planar chord, while present
	ids     []planarcert.NodeID
	net     *planarcert.Network // mirror of the stream's topology
}

func newDetStream(net *planarcert.Network, seed int64) *detStream {
	return &detStream{
		rng:  rand.New(rand.NewSource(seed)),
		base: net.Edges(),
		ids:  net.IDs(),
		net:  net.Clone(),
	}
}

func (st *detStream) next() []planarcert.Update {
	var u planarcert.Update
	switch r := st.rng.Intn(40); {
	case st.chord != nil:
		u = planarcert.EdgeRemove(st.chord[0], st.chord[1])
		st.chord = nil
	case r == 0:
		for st.chord == nil {
			a, b := st.ids[st.rng.Intn(len(st.ids))], st.ids[st.rng.Intn(len(st.ids))]
			if a != b && !st.adjacent(a, b) {
				u, st.chord = planarcert.EdgeAdd(a, b), &[2]planarcert.NodeID{a, b}
			}
		}
	case len(st.removed) >= 4 || (len(st.removed) > 0 && r < 20):
		j := st.rng.Intn(len(st.removed))
		e := st.base[st.removed[j]]
		st.removed = append(st.removed[:j], st.removed[j+1:]...)
		u = planarcert.EdgeAdd(e[0], e[1])
	default:
		i := st.rng.Intn(len(st.base))
		for slices.Contains(st.removed, i) {
			i = st.rng.Intn(len(st.base))
		}
		st.removed = append(st.removed, i)
		u = planarcert.EdgeRemove(st.base[i][0], st.base[i][1])
	}
	if u.Op == planarcert.OpAddEdge {
		_ = st.net.AddEdge(u.A, u.B)
	} else {
		st.net.RemoveEdge(u.A, u.B)
	}
	return []planarcert.Update{u}
}

func (st *detStream) adjacent(a, b planarcert.NodeID) bool {
	for _, v := range st.net.Neighbors(a) {
		if v == b {
			return true
		}
	}
	return false
}

// TestAbsorptionDeterministic pins that absorption is a function of the
// network and the stream alone: two sessions built on one Network, two
// sessions restored from one snapshot, and a fresh session and one
// restored from its snapshot absorb a seeded stream in the same mode
// batch by batch and hold byte-identical certificates after every batch.
// The last pair holds because a restored session reads its repair state
// off the certificates, so its first batch repairs like the fresh one's.
func TestAbsorptionDeterministic(t *testing.T) {
	net := triangulationNetwork(120, 11)
	cfg := planarcert.EngineConfig{Sequential: true}
	a, err := planarcert.NewSession(net, planarcert.SchemePlanarity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := planarcert.NewSession(net, planarcert.SchemePlanarity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	ra, err := planarcert.RestoreSession(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := planarcert.RestoreSession(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := planarcert.NewSession(net, planarcert.SchemePlanarity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := planarcert.RestoreSession(c.Snapshot(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		name string
		x, y *planarcert.Session
	}{{"new", a, b}, {"restored", ra, rb}, {"fresh-vs-restored", c, rc}}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.x.Certificates(), p.y.Certificates()) {
			t.Fatalf("%s: initial certificates differ", p.name)
		}
	}

	st := newDetStream(net, 5)
	modes := map[string]int{}
	for i := 0; i < 150; i++ {
		batch := st.next()
		for _, p := range pairs {
			rx, err := p.x.Apply(batch)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			ry, err := p.y.Apply(batch)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if rx.Mode != ry.Mode || rx.RepairFallback != ry.RepairFallback {
				t.Fatalf("%s: batch %d %v absorbed as %q (%q) by one session and %q (%q) by the other",
					p.name, i, batch, rx.Mode, rx.RepairFallback, ry.Mode, ry.RepairFallback)
			}
			if !reflect.DeepEqual(p.x.Certificates(), p.y.Certificates()) {
				t.Fatalf("%s: batch %d (%s): certificates differ", p.name, i, rx.Mode)
			}
			if p.name == "new" {
				modes[rx.Mode]++
			}
		}
	}
	// The stream must reach the paths whose choices could leak order.
	for _, m := range []string{"repair", "reprove", "flip"} {
		if modes[m] == 0 {
			t.Fatalf("stream never absorbed a batch as %q: %v", m, modes)
		}
	}
}

// TestKuratowskiDeterministic pins that witness extraction is a function
// of the network: repeated calls, and a call on a clone, return the same
// witness.
func TestKuratowskiDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := gen.PlantSubdivision(200, seed%2 == 0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		net := planarcert.FromGraph(g)
		w1, err := net.Kuratowski()
		if err != nil {
			t.Fatal(err)
		}
		w2, err := net.Kuratowski()
		if err != nil {
			t.Fatal(err)
		}
		w3, err := net.Clone().Kuratowski()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(w1, w3) {
			t.Fatalf("seed %d: witnesses differ:\n%+v\n%+v\n%+v", seed, w1, w2, w3)
		}
	}
}
