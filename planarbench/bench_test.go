package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	planarcert "github.com/planarcert/planarcert"
	"github.com/planarcert/planarcert/internal/obs"
	"github.com/planarcert/planarcert/internal/planarity"
)

// TestStreamDeterminism: the same seed gives a byte-identical request
// stream and a different seed a different one.
func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		sp, err := lookupSpec(w.name, true)
		if err != nil {
			t.Fatal(err)
		}
		a, err := streamDigest(sp, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamDigest(sp, 7, 64)
		c, _ := streamDigest(sp, 8, 64)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams: %s, %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", w.name, a)
		}
	}
}

// TestOracleStates walks every workload's stream and checks the oracle
// against planarity.IsPlanar and Euler's bound at each state.
func TestOracleStates(t *testing.T) {
	for _, w := range workloads {
		sp, _ := lookupSpec(w.name, true)
		for i, st := range newStreams(sp, 5) {
			for k := 0; k < 40; k++ {
				b := st.next()
				m := st.mirror()
				if b.wantPlanar != st.planar() {
					t.Fatalf("%s/%d batch %d: batch and stream disagree on the verdict", w.name, i, k)
				}
				if !b.wantPlanar && m.size() <= 3*m.n()-6 {
					t.Fatalf("%s/%d batch %d: non-planar state within Euler's bound", w.name, i, k)
				}
				if got := planarity.IsPlanar(m.graph()); got != b.wantPlanar {
					t.Fatalf("%s/%d batch %d: IsPlanar=%v, oracle %v", w.name, i, k, got, b.wantPlanar)
				}
			}
		}
	}
}

// TestCheckAckRejectsWrongVerdict: the ack oracle is not vacuous.
func TestCheckAckRejectsWrongVerdict(t *testing.T) {
	s := &session{name: "s", gen: 4}
	b := batch{updates: []planarcert.Update{planarcert.EdgeAdd(1, 2)}, wantPlanar: false}
	good := &planarcert.WireBatchAck{Report: &planarcert.SessionReport{
		Generation: 5, Updates: 1, Accepted: true, ActiveScheme: planarcert.SchemeNonPlanarity,
	}}
	if err := checkAck(s, b, good); err != nil {
		t.Fatalf("correct ack rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *planarcert.SessionReport){
		"scheme":     func(r *planarcert.SessionReport) { r.ActiveScheme = planarcert.SchemePlanarity },
		"rejected":   func(r *planarcert.SessionReport) { r.Accepted = false },
		"generation": func(r *planarcert.SessionReport) { r.Generation = 7 },
		"updates":    func(r *planarcert.SessionReport) { r.Updates = 0 },
	} {
		rep := *good.Report
		mutate(&rep)
		if err := checkAck(s, b, &planarcert.WireBatchAck{Report: &rep}); err == nil {
			t.Errorf("ack with a wrong %s accepted", name)
		}
	}
}

// TestSmoke runs every workload at its smoke size, untraced and traced,
// through the whole pipeline: oracles, crash-shaped recoveries and the
// /debug/traces phase decomposition.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			sp, _ := lookupSpec(w.name, true)
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := benchmark(config{spec: sp, seed: 3, seconds: time.Second, trace: traced, workdir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
			})
		}
	}
}

// TestPhasesOfMatchesObs: phasesOf, which decomposes the /debug/traces
// JSON, gives the same phases as obs.Phases on the live span tree, for
// a tree with every span kind, nested and repeated.
func TestPhasesOfMatchesObs(t *testing.T) {
	tr := obs.New(obs.Config{})
	root := tr.Start("s", obs.SpanBatch)
	leaf := func(parent *obs.Span, name string) *obs.Span {
		c := parent.Child(name)
		time.Sleep(time.Millisecond)
		c.End()
		return c
	}
	leaf(root, obs.SpanAdmit)
	leaf(root, obs.SpanQueueWait)
	apply := root.Child("apply")
	leaf(apply, obs.SpanProve)
	sweep := apply.Child(obs.SpanSweep)
	leaf(sweep, obs.SpanBudgetWait)
	leaf(sweep, "round")
	sweep.End()
	leaf(apply, obs.SpanBudgetWait)
	leaf(apply, obs.SpanProve)
	apply.End()
	leaf(root, obs.SpanPersist)
	time.Sleep(time.Millisecond)
	root.End()

	raw, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var js spanJSON
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	got, remainder := phasesOf(&js)
	want := obs.Phases(root)
	if len(got) != len(want) {
		t.Fatalf("phasesOf gives %d phases, obs.Phases %d", len(got), len(want))
	}
	for name, d := range want {
		w := float64(d) / 1e6
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-6 {
			t.Errorf("phase %s: phasesOf %.6f ms, obs.Phases %.6f ms", name, g, w)
		}
		if d == 0 {
			t.Errorf("phase %s is 0: the tree does not exercise it", name)
		}
	}
	if remainder <= 0 {
		t.Errorf("remainder %.6f ms, want positive", remainder)
	}
}

// TestPhaseMeansChecks: phaseMeans rejects a trace whose phases overlap
// and a mean batch time outside the ack elapsed and round-trip bracket.
func TestPhaseMeansChecks(t *testing.T) {
	trace := func(rootMs, proveMs float64) *tracesPage {
		page := &tracesPage{Enabled: true}
		page.Traces = append(page.Traces, struct {
			Session string    `json:"session"`
			Root    *spanJSON `json:"root"`
		}{"s", &spanJSON{Name: obs.SpanBatch, DurationNanos: int64(rootMs * 1e6), Children: []*spanJSON{
			{Name: obs.SpanProve, DurationNanos: int64(proveMs * 1e6)},
		}}})
		return page
	}
	if _, batchMs, err := phaseMeans(trace(10, 6), []float64{9}, []float64{2}); err != nil || batchMs != 10 {
		t.Fatalf("consistent trace: batch %v ms, err %v", batchMs, err)
	}
	for name, c := range map[string]struct {
		page       *tracesPage
		exec, over float64
	}{
		"overlapping phases":    {trace(10, 11), 9, 2},
		"shorter than exec":     {trace(10, 6), 11, 2},
		"longer than roundtrip": {trace(10, 6), 5, 2},
		"missing trace":         {&tracesPage{Enabled: true}, 9, 2},
	} {
		if _, _, err := phaseMeans(c.page, []float64{c.exec}, []float64{c.over}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and
// metrics the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the benchmark", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the benchmark",
					i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestModeMixRepro reproduces a known program issue: two sequential
// sessions fed one byte-identical stream absorb it in different modes.
// It runs only with PLANARBENCH_REPRO=1 and fails at the first batch
// whose absorption modes differ.
func TestModeMixRepro(t *testing.T) {
	if os.Getenv("PLANARBENCH_REPRO") != "1" {
		t.Skip("set PLANARBENCH_REPRO=1 to run the mode-mix repro")
	}
	sp, _ := lookupSpec("repair-stream", false)
	a, b := newStreams(sp, 1)[0], newStreams(sp, 1)[0]
	na, err := a.mirror().network()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.mirror().network()
	if err != nil {
		t.Fatal(err)
	}
	cfg := planarcert.EngineConfig{Sequential: true}
	sa, err := planarcert.NewSession(na, planarcert.SchemePlanarity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := planarcert.NewSession(nb, planarcert.SchemePlanarity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ra, err := sa.Apply(a.next().updates)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sb.Apply(b.next().updates)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Mode != rb.Mode {
			t.Fatalf("batch %d: one stream absorbed as %q by one session and %q by the other (fallbacks %q / %q)",
				i, ra.Mode, rb.Mode, ra.RepairFallback, rb.RepairFallback)
		}
	}
}
