package pipeline

import (
	"sync"
	"testing"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/svcomp"
	"zpre/internal/telemetry"
)

func litProgram(t *testing.T, name string) *cprog.Program {
	t.Helper()
	for _, b := range svcomp.Lit() {
		if b.Name == name {
			return b.Program
		}
	}
	t.Fatalf("lit/%s missing from the corpus", name)
	return nil
}

// TestRunMatchesLayers: Run adds no behaviour of its own to the layers it
// composes — for every lit program, model and strategy, its verdict and
// search counters equal a hand-composed unroll → encode → decide → solve of
// the same instance.
func TestRunMatchesLayers(t *testing.T) {
	for _, b := range svcomp.Lit() {
		for _, mm := range memmodel.All() {
			for _, strat := range []core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE} {
				res, vc, err := Run(b.Program, Options{Model: mm, Strategy: strat, Seed: 1})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", b.Name, mm, strat, err)
				}
				if vc == nil {
					t.Fatalf("%s/%v/%v: no instance returned", b.Name, mm, strat)
				}
				ref, err := encode.Program(cprog.Unroll(b.Program, 1, cprog.UnwindAssume), encode.Options{Model: mm})
				if err != nil {
					t.Fatal(err)
				}
				var dec sat.Decider
				if d := core.NewDecider(strat, core.Classify(ref.Builder.NamedVars()), core.Config{Seed: 1}); d != nil {
					dec = d
				}
				want, err := ref.Builder.Solve(smt.Options{Decider: dec})
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != want.Status || res.Stats != want.Stats || res.VC.Clauses != ref.Stats.Clauses {
					t.Errorf("%s/%v/%v: pipeline %v %+v, layers %v %+v",
						b.Name, mm, strat, res.Status, res.Stats, want.Status, want.Stats)
				}
			}
		}
	}
}

// TestSpanTreeCoversEveryStage: with every optional stage on, a run that
// reaches the solver records each stage once, under the documented parent.
func TestSpanTreeCoversEveryStage(t *testing.T) {
	tr := obs.NewTrace("lit/fig2@tso/k1/zpre")
	res, _, err := Run(litProgram(t, "fig2"), Options{
		Model: memmodel.TSO, Strategy: core.ZPRE, Seed: 1,
		RG: true, StaticPrune: true, Dataflow: true, Check: true,
		Spans: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RGProved || !res.Checked {
		t.Fatalf("fig2@tso must reach the solver and be checked: %+v", res)
	}
	parent := map[string]string{
		"rg.prove": "run", "unroll": "run", "encode": "run", "decide": "run",
		"solve": "run", "check": "run",
		"encode.static": "encode", "encode.dataflow": "encode",
		"solve.bcp": "solve", "solve.theory": "solve", "solve.analyze": "solve",
		"solve.reduce": "solve", "solve.inprocess": "solve",
	}
	byName := map[string]obs.Span{}
	for _, sp := range tr.Spans() {
		if _, dup := byName[sp.Name]; dup {
			t.Fatalf("span %q recorded twice", sp.Name)
		}
		byName[sp.Name] = sp
	}
	if root, ok := byName["run"]; !ok || root.Parent != 0 || root.Dur == 0 {
		t.Fatalf("run root missing or open: %+v", root)
	}
	for child, p := range parent {
		sp, ok := byName[child]
		if !ok {
			t.Fatalf("span %q missing (spans: %+v)", child, tr.Spans())
		}
		if sp.Parent != byName[p].ID {
			t.Errorf("span %q parent = %d, want %q (%d)", child, sp.Parent, p, byName[p].ID)
		}
	}
	if len(byName) != len(parent)+1 {
		t.Errorf("recorded %d spans, want %d", len(byName), len(parent)+1)
	}
}

// TestTraceSinkCarriesSpanTree: a search trace without a caller-supplied
// span trace still ends with the run's span tree and an exact summary.
func TestTraceSinkCarriesSpanTree(t *testing.T) {
	sink := &telemetry.MemorySink{}
	p := litProgram(t, "fig2")
	res, _, err := Run(p, Options{
		Model: memmodel.SC, Strategy: core.ZPRE, Seed: 1, TraceSink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.AnalyzeTrace(sink.Events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if rep.Meta == nil || rep.Meta.Task != p.Name {
		t.Fatalf("meta = %+v, want task %s", rep.Meta, p.Name)
	}
	if rep.Summary.Stats.Decisions != res.Stats.Decisions {
		t.Fatalf("summary decisions %d != run decisions %d", rep.Summary.Stats.Decisions, res.Stats.Decisions)
	}
	spans := map[string]bool{}
	for _, ev := range sink.Events {
		if ev.Kind == telemetry.KindSpan && ev.SpanID > 0 {
			spans[ev.Name] = true
		}
	}
	for _, name := range []string{"run", "unroll", "encode", "decide", "solve", "solve.bcp"} {
		if !spans[name] {
			t.Errorf("trace lacks span %q", name)
		}
	}
}

// TestRGMemoProvesOncePerPair: runs sharing a memo — any bound, any
// strategy, from any goroutine — get the one engine result of their
// (program, model) pair; another model is another pair.
func TestRGMemoProvesOncePerPair(t *testing.T) {
	p := litProgram(t, "fig2")
	memo := NewRGMemo(nil)
	type pair struct{ sc, tso *rg.Result }
	got := make([]pair, 4)
	var wg sync.WaitGroup
	for i := range got {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].sc, _ = Prove(p, Options{Model: memmodel.SC, Unroll: i + 1, RGMemo: memo})
			got[i].tso, _ = Prove(p, Options{Model: memmodel.TSO, Strategy: core.ZPRE, RGMemo: memo})
		}()
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("memo returned different results for one pair")
		}
	}
	if got[0].sc == got[0].tso {
		t.Fatal("memo shared one result across memory models")
	}
}

// TestRGProvedSkipsLaterStages: a program the rg stage proves is decided
// without an instance, and a requested check is marked skipped.
func TestRGProvedSkipsLaterStages(t *testing.T) {
	for _, b := range svcomp.All() {
		res, vc, err := Run(b.Program, Options{Model: memmodel.SC, RG: true, RGDomain: "dbm", Check: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.RGProved {
			continue
		}
		if vc != nil || res.Verdict() != UnboundedSafe || !res.CheckSkipped || res.Stats.Decisions != 0 {
			t.Fatalf("%s: proved run %+v (instance %v)", b.Name, res, vc != nil)
		}
		return
	}
	t.Fatal("no corpus program proved by the rg stage under SC")
}
