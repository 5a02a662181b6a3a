package main

import (
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"

	"github.com/planarcert/planarcert/internal/core"
	"github.com/planarcert/planarcert/internal/dynamic"
	"github.com/planarcert/planarcert/internal/gen"
	"github.com/planarcert/planarcert/internal/graph"
	"github.com/planarcert/planarcert/internal/obs"
)

// fallbacks tallies how dynamic.Session absorbs the shape of the
// planarbench repair-stream workload: stacked triangulations where each
// batch removes one triangulation edge that is not a bridge, or re-adds
// a removed one, with at most 64 edges out at a time. It prints the
// absorption modes, the reasons repairs fell back (numbers masked), and
// how many re-proves kept the certified embedding or ran the LR test.
// For the re-proves behind each fallback reason it prints the mean share
// of certificates the batch changed (diffed here, against a copy taken
// before the batch) and of nodes the re-prove's sweep verified.
func fallbacks(args []string) error {
	fs := flag.NewFlagSet("fallbacks", flag.ContinueOnError)
	sessions := fs.Int("sessions", 4, "sessions, each on its own triangulation and stream")
	batches := fs.Int("batches", 600, "batches per session")
	n := fs.Int("n", 2000, "nodes per triangulation")
	seed := fs.Int64("seed", 1, "stream seed of session 0; session i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	const maxRemoved = 64
	digits := regexp.MustCompile(`\d+`)
	modes, reasons, embeddings := map[string]int{}, map[string]int{}, map[string]int{}
	type shares struct {
		count             int
		changed, verified float64
	}
	reproves := map[string]*shares{}
	tracer := obs.New(obs.Config{})
	for i := 0; i < *sessions; i++ {
		g := gen.StackedTriangulation(*n, rand.New(rand.NewSource(int64(i)+1)))
		base := g.Edges()
		s, err := dynamic.NewSession(g, dynamic.Config{Scheme: core.PlanarScheme{}, Counterpart: core.NonPlanarScheme{}})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed + int64(i)))
		var removed []graph.Edge
		for b := 0; b < *batches; b++ {
			u := dynamic.Update{Op: dynamic.AddEdge}
			if len(removed) == maxRemoved || (len(removed) > 0 && rng.Intn(2) == 0) {
				j := rng.Intn(len(removed))
				u.A, u.B = s.Graph().IDOf(removed[j].U), s.Graph().IDOf(removed[j].V)
				removed = slices.Delete(removed, j, j+1)
			} else {
				for {
					e := base[rng.Intn(len(base))]
					if slices.Contains(removed, e) {
						continue
					}
					h := s.Graph().Clone()
					h.RemoveEdge(e.U, e.V)
					if h.Connected() {
						removed = append(removed, e)
						u = dynamic.Update{Op: dynamic.RemoveEdge, A: g.IDOf(e.U), B: g.IDOf(e.V)}
						break
					}
				}
			}
			before := maps.Clone(s.Certificates())
			root := tracer.Start("fallbacks", obs.SpanBatch)
			s.TraceNext(root)
			rep, err := s.Apply([]dynamic.Update{u})
			root.End()
			if err != nil {
				return err
			}
			if !rep.Accepted {
				return fmt.Errorf("session %d, batch %d: not accepted (%s)", i, b, rep.Mode)
			}
			modes[string(rep.Mode)]++
			reason := digits.ReplaceAllString(rep.RepairFallback, "#")
			if reason != "" {
				reasons[reason]++
			}
			if rep.Mode == dynamic.ModeReprove || rep.Mode == dynamic.ModeFlip {
				changed := 0
				for id, c := range s.Certificates() {
					if !c.Equal(before[id]) {
						changed++
					}
				}
				sh := reproves[reason]
				if sh == nil {
					sh = &shares{}
					reproves[reason] = sh
				}
				n := float64(s.Graph().N())
				sh.count++
				sh.changed += float64(changed) / n
				sh.verified += float64(rep.Verified) / n
			}
			for _, c := range root.Children() {
				if e, ok := c.StrAttr("embedding"); ok && c.Name() == obs.SpanProve {
					embeddings[e]++
				}
			}
		}
	}
	total := *sessions * *batches
	fmt.Printf("fallbacks: %d sessions x %d batches, n=%d, seed %d\n", *sessions, *batches, *n, *seed)
	for _, m := range slices.Sorted(maps.Keys(modes)) {
		fmt.Printf("  mode %-9s %5d  (%.1f%%)\n", m, modes[m], 100*float64(modes[m])/float64(total))
	}
	for _, r := range slices.Sorted(maps.Keys(reasons)) {
		fmt.Printf("  fallback %5d  %s\n", reasons[r], r)
	}
	for _, e := range slices.Sorted(maps.Keys(embeddings)) {
		fmt.Printf("  re-prove embedding %-4s %5d\n", e, embeddings[e])
	}
	for _, r := range slices.Sorted(maps.Keys(reproves)) {
		sh := reproves[r]
		fmt.Printf("  re-prove %5d  changed %5.1f%%  verified %5.1f%%  %s\n", sh.count,
			100*sh.changed/float64(sh.count), 100*sh.verified/float64(sh.count), r)
	}
	return nil
}
