package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"zpre/internal/core"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
	"zpre/internal/telemetry"
)

// incRun builds one synthetic incremental bound-run carrying cumulative
// encoder counters, the shape runSweepBound records.
func incRun(bench string, mm memmodel.Model, bound int, vc encode.Stats) RunResult {
	return RunResult{
		Task: Task{
			Bench: svcomp.Benchmark{Subcategory: "syn", Name: bench},
			Model: mm,
			Bound: bound,
		},
		Strategy:    core.Baseline,
		Result:      pipeline.Result{Status: sat.Unsat, VC: vc},
		Completed:   true,
		Incremental: true,
	}
}

// TestPruneReportCountsIncrementalSweepOnce: incremental bounds carry
// cumulative encoder stats, so the prune report must take each sweep's
// deepest bound once instead of summing every bound — summing would count
// bound 1's prunes again at bounds 2 and 3.
func TestPruneReportCountsIncrementalSweepOnce(t *testing.T) {
	cum := func(bound int) encode.Stats {
		// Strictly growing cumulative counters: bound k has seen k×base work.
		return encode.Stats{
			Events:      10 * bound,
			RFVars:      8 * bound,
			RFPruned:    4 * bound,
			WSVars:      6 * bound,
			WSPruned:    2 * bound,
			ValuePruned: 3 * bound,
			FixedHB:     1 * bound,
			// Simplification happens once per sweep, not per bound.
			FoldedAssigns: 5,
		}
	}
	res := &Results{Config: Config{Models: []memmodel.Model{memmodel.SC}}}
	for _, bound := range []int{1, 2, 3} {
		res.Runs = append(res.Runs, incRun("sweep_bench", memmodel.SC, bound, cum(bound)))
	}
	// A fresh (non-incremental) run of another benchmark still sums per task.
	fresh := incRun("fresh_bench", memmodel.SC, 1, cum(1))
	fresh.Incremental = false
	res.Runs = append(res.Runs, fresh)

	rows := res.PruneReport()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(rows), rows)
	}
	byName := map[string]PruneRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	sweep := byName["sweep_bench"]
	want := cum(3) // deepest bound only
	if sweep.Tasks != 1 {
		t.Fatalf("sweep tasks = %d, want 1 (deepest bound only)", sweep.Tasks)
	}
	if sweep.ValuePruned != want.ValuePruned || sweep.FixedHB != want.FixedHB ||
		sweep.FoldedAssigns != want.FoldedAssigns {
		t.Fatalf("sweep dataflow stats = %d/%d/%d, want %d/%d/%d (cumulative at k=3, not Σ over bounds)",
			sweep.ValuePruned, sweep.FoldedAssigns, sweep.FixedHB,
			want.ValuePruned, want.FoldedAssigns, want.FixedHB)
	}
	if got, w := sweep.RFBefore, want.RFVars+want.RFPruned+want.ValuePruned; got != w {
		t.Fatalf("sweep rf before = %d, want %d", got, w)
	}
	if got, w := sweep.WSBefore, want.WSVars+want.WSPruned; got != w {
		t.Fatalf("sweep ws before = %d, want %d", got, w)
	}
	if f := byName["fresh_bench"]; f.ValuePruned != cum(1).ValuePruned {
		t.Fatalf("fresh value pruned = %d, want %d", f.ValuePruned, cum(1).ValuePruned)
	}
	out := FormatPruneReport(rows)
	for _, col := range []string{"val-rf", "folded", "fixhb"} {
		if !strings.Contains(out, col) {
			t.Fatalf("prune report missing %q column:\n%s", col, out)
		}
	}
}

// TestDataflowHarness: the value-flow pass keeps every verdict on the
// pthread slice in both fresh and incremental modes, prunes something, and
// the metrics registry counts each incremental sweep's stats once (the
// deepest bound's cumulative numbers), not once per bound.
func TestDataflowHarness(t *testing.T) {
	base := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.ZPRE},
		Bounds:        []int{1, 2},
		Timeout:       time.Minute,
		Width:         8,
		Subcategories: []string{"pthread"},
	}
	plain := Run(base)

	df := base
	df.Dataflow = true
	df.Metrics = telemetry.NewRegistry()
	fresh := Run(df)
	if len(fresh.Runs) != len(plain.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(fresh.Runs), len(plain.Runs))
	}
	pruned := 0
	for i := range fresh.Runs {
		p, d := plain.Runs[i], fresh.Runs[i]
		if d.Err != nil {
			t.Fatalf("%s: dataflow error: %v", d.Task.ID(), d.Err)
		}
		if p.Status != d.Status {
			t.Fatalf("%s: verdict changed by dataflow: %v vs %v", p.Task.ID(), p.Status, d.Status)
		}
		pruned += d.VC.ValuePruned
	}
	if pruned == 0 {
		t.Fatal("dataflow pruned no rf candidates across the pthread slice")
	}
	if got := df.Metrics.Counter("dataflow_value_pruned").Value(); got != uint64(pruned) {
		t.Fatalf("fresh metrics value_pruned = %d, want per-run total %d", got, pruned)
	}

	inc := df
	inc.Incremental = true
	inc.Metrics = telemetry.NewRegistry()
	incRes := Run(inc)
	// Expected counter: per sweep, the deepest bound's cumulative count.
	maxPruned := map[string]int{}
	for _, r := range incRes.Runs {
		if r.Err != nil {
			t.Fatalf("%s: incremental dataflow error: %v", r.Task.ID(), r.Err)
		}
		key := r.Task.Bench.Name + "/" + r.Task.Model.String()
		if r.VC.ValuePruned > maxPruned[key] {
			maxPruned[key] = r.VC.ValuePruned
		}
	}
	wantInc := 0
	for _, n := range maxPruned {
		wantInc += n
	}
	if wantInc == 0 {
		t.Fatal("incremental dataflow pruned nothing")
	}
	if got := inc.Metrics.Counter("dataflow_value_pruned").Value(); got != uint64(wantInc) {
		t.Fatalf("incremental metrics value_pruned = %d, want once-per-sweep total %d", got, wantInc)
	}
	for i := range incRes.Runs {
		if incRes.Runs[i].Status != plain.Runs[i].Status {
			t.Fatalf("%s: incremental dataflow verdict %v, plain fresh %v",
				incRes.Runs[i].Task.ID(), incRes.Runs[i].Status, plain.Runs[i].Status)
		}
	}

	var buf strings.Builder
	if err := fresh.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONResults
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if !doc.Dataflow {
		t.Fatal("dataflow flag missing from JSON header")
	}
	jsonPruned := 0
	for _, r := range doc.Runs {
		jsonPruned += r.ValuePruned
	}
	if jsonPruned != pruned {
		t.Fatalf("json value_pruned total %d != run total %d", jsonPruned, pruned)
	}
}
