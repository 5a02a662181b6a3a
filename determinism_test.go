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

// sessionPair is two sessions that must absorb one stream alike.
type sessionPair struct {
	name string
	x, y *planarcert.Session
}

// absorbAlike applies batches from next to every pair and fails unless
// both sessions of a pair absorb each batch in the same mode, with the
// same repair fallback, the same dirty and verified counts and the same
// kind of sweep, and hold byte-identical certificates after it. It
// returns the modes of the first pair's x session, the embedding
// attribute of each of its prove spans, and how many of its batches ran
// a full sweep.
func absorbAlike(t *testing.T, pairs []sessionPair, batches int, next func() []planarcert.Update) (modes, embeddings map[string]int, full int) {
	t.Helper()
	for _, p := range pairs {
		if !reflect.DeepEqual(p.x.Certificates(), p.y.Certificates()) {
			t.Fatalf("%s: initial certificates differ", p.name)
		}
	}
	modes, embeddings = map[string]int{}, map[string]int{}
	tracer := planarcert.NewTracer(planarcert.TracerConfig{})
	for i := 0; i < batches; i++ {
		batch := next()
		for k, p := range pairs {
			root := tracer.Start(p.name, "batch")
			p.x.Trace(root)
			rx, err := p.x.Apply(batch)
			root.End()
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
			if rx.Dirty != ry.Dirty || rx.Verified != ry.Verified || rx.FullVerify != ry.FullVerify {
				t.Fatalf("%s: batch %d (%s): dirty/verified/full %d/%d/%v by one session and %d/%d/%v by the other",
					p.name, i, rx.Mode, rx.Dirty, rx.Verified, rx.FullVerify, ry.Dirty, ry.Verified, ry.FullVerify)
			}
			if !reflect.DeepEqual(p.x.Certificates(), p.y.Certificates()) {
				t.Fatalf("%s: batch %d (%s): certificates differ", p.name, i, rx.Mode)
			}
			if k > 0 {
				continue
			}
			modes[rx.Mode]++
			if rx.FullVerify {
				full++
			}
			for _, c := range root.Children() {
				if e, ok := c.StrAttr("embedding"); ok && c.Name() == "prove" {
					embeddings[e]++
				}
			}
		}
	}
	return modes, embeddings, full
}

// TestAbsorptionDeterministic pins that absorption is a function of the
// network and the stream alone: two sessions built on one Network, two
// sessions restored from one snapshot, and a fresh session and one
// restored from its snapshot absorb a seeded stream in the same mode
// batch by batch and hold byte-identical certificates after every batch.
// The last pair holds because a restored session reads its repair state
// off the certificates, so its first batch repairs like the fresh one's.
// A leaf-attach stream pins the re-proves that keep the certified
// embedding: the restored session's first batch adds a node, so it
// re-proves from an embedding read off the restored certificates
// without a repair attempt before it; every one of its batches adds a
// node, so every sweep is full.
func TestAbsorptionDeterministic(t *testing.T) {
	cfg := planarcert.EngineConfig{Sequential: true}
	newSession := func(net *planarcert.Network) *planarcert.Session {
		s, err := planarcert.NewSession(net, planarcert.SchemePlanarity, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	restore := func(s *planarcert.Session) *planarcert.Session {
		r, err := planarcert.RestoreSession(s.Snapshot(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	net := triangulationNetwork(120, 11)
	a, b, c := newSession(net), newSession(net), newSession(net)
	st := newDetStream(net, 5)
	modes, _, _ := absorbAlike(t, []sessionPair{
		{"new", a, b}, {"restored", restore(a), restore(a)}, {"fresh-vs-restored", c, restore(c)},
	}, 150, st.next)
	// The stream must reach the paths whose choices could leak order.
	for _, m := range []string{"repair", "reprove", "flip"} {
		if modes[m] == 0 {
			t.Fatalf("stream never absorbed a batch as %q: %v", m, modes)
		}
	}

	big := triangulationNetwork(2000, 12)
	a, c = newSession(big), newSession(big)
	leaves := newLeafStream(big, 6)
	modes, embeddings, full := absorbAlike(t, []sessionPair{
		{"leaf-new", a, newSession(big)}, {"leaf-fresh-vs-restored", c, restore(c)},
	}, 24, leaves.next)
	if modes["reprove"] != 24 || full != 24 || embeddings["kept"] == 0 || embeddings["lr"] == 0 {
		t.Fatalf("leaf stream: modes %v, %d full sweeps, embeddings %v; want every batch re-proved with a full sweep, both kept and LR embeddings",
			modes, full, embeddings)
	}
}

// leafStream attaches one new node per batch to a seeded random node,
// the shape of a growing network whose every batch re-proves. Every
// third batch also removes a triangulation edge, or re-adds the one it
// removed, so the stream re-proves from the kept embedding across edge
// removals and from a new one when an edge joins two existing nodes.
type leafStream struct {
	rng     *rand.Rand
	base    [][2]planarcert.NodeID
	ids     []planarcert.NodeID // the nodes so far
	removed *[2]planarcert.NodeID
	batches int
}

func newLeafStream(net *planarcert.Network, seed int64) *leafStream {
	return &leafStream{rng: rand.New(rand.NewSource(seed)), base: net.Edges(), ids: net.IDs()}
}

func (st *leafStream) next() []planarcert.Update {
	leaf := slices.Max(st.ids) + 1
	batch := []planarcert.Update{
		planarcert.NodeAdd(leaf),
		planarcert.EdgeAdd(leaf, st.ids[st.rng.Intn(len(st.ids))]),
	}
	st.ids = append(st.ids, leaf)
	if st.batches++; st.batches%3 == 0 {
		if e := st.removed; e != nil {
			batch, st.removed = append(batch, planarcert.EdgeAdd(e[0], e[1])), nil
		} else {
			e := st.base[st.rng.Intn(len(st.base))]
			batch, st.removed = append(batch, planarcert.EdgeRemove(e[0], e[1])), &e
		}
	}
	return batch
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
