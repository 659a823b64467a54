package zpre

import (
	"strings"
	"testing"
	"time"

	"zpre/internal/core"
	"zpre/internal/harness"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/svcomp"
)

func TestParseProgramAndVerify(t *testing.T) {
	prog, err := ParseProgram("mini", `
shared x;
thread t1 { x = 1; }
thread t2 { x = 2; }
main { assert(x != 0); }
`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(prog, Options{Model: SC, Strategy: ZPRE})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("x is written 1 or 2 by both threads; got %v", rep.Verdict)
	}
	if rep.EncodeStats.Events == 0 || rep.SolveTime < 0 {
		t.Fatal("report not populated")
	}
}

// TestEntryPointsShareOnePipeline: zpre.Verify and the evaluation harness
// run one task through the same stages — identical span trees by name and
// parent, identical verdict and search counters.
func TestEntryPointsShareOnePipeline(t *testing.T) {
	cfg := harness.Config{
		Models:        []memmodel.Model{TSO},
		Strategies:    []core.Strategy{ZPRE},
		Bounds:        []int{1},
		Seed:          1,
		StaticPrune:   true,
		Dataflow:      true,
		RG:            true,
		Subcategories: []string{"lit"},
		Chrome:        obs.NewCollector(),
	}
	var task harness.Task
	for _, tk := range harness.Tasks(cfg) {
		if tk.Bench.Name == "fig2" {
			task = tk
		}
	}
	run := harness.RunOne(task, ZPRE, cfg)
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	tr := obs.NewTrace("verify")
	rep, err := Verify(task.Bench.Program, Options{
		Model: TSO, Strategy: ZPRE, Unroll: 1, Seed: 1,
		StaticPrune: true, Dataflow: true, RG: true, Spans: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != run.Status || rep.SolverStats != run.Stats {
		t.Fatalf("Verify %v %+v, harness %v %+v", rep.Status, rep.SolverStats, run.Status, run.Stats)
	}
	shape := func(tr *obs.Trace) []string {
		spans := tr.Spans()
		var out []string
		for _, sp := range spans {
			parent := ""
			if sp.Parent > 0 {
				parent = spans[sp.Parent-1].Name
			}
			out = append(out, parent+"/"+sp.Name)
		}
		return out
	}
	got, want := shape(tr), shape(cfg.Chrome.Traces()[0])
	if len(got) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("span trees differ:\n Verify:  %v\n harness: %v", got, want)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Safe.String() != "true" || Unsafe.String() != "false" || Unknown.String() != "unknown" {
		t.Fatal("verdict strings broken")
	}
}

func TestVerifyDefaultsUnrollAndWidth(t *testing.T) {
	prog, err := ParseProgram("defaults", `
shared x;
thread t {
    local c;
    while (c < 1) { x = x + 1; c = c + 1; }
}
main { assert(x <= 1); }
`)
	if err != nil {
		t.Fatal(err)
	}
	// Unroll defaults to 1, width to 8.
	rep, err := Verify(prog, Options{Strategy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("got %v", rep.Verdict)
	}
}

func TestVerifyBudgetUnknown(t *testing.T) {
	var hard *svcomp.Benchmark
	for _, b := range svcomp.All() {
		if b.Name == "incr_lock_safe_5" {
			bb := b
			hard = &bb
		}
	}
	if hard == nil {
		t.Fatal("corpus missing incr_lock_safe_5")
	}
	rep, err := Verify(hard.Program, Options{
		Model:        memmodel.SC,
		Strategy:     Baseline,
		MaxConflicts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unknown {
		t.Fatalf("1-conflict budget must give Unknown, got %v", rep.Verdict)
	}
}

func TestVerifyTimeout(t *testing.T) {
	var hard *svcomp.Benchmark
	for _, b := range svcomp.All() {
		if b.Name == "incr_lock_safe_6" {
			bb := b
			hard = &bb
		}
	}
	rep, err := Verify(hard.Program, Options{
		Model:    memmodel.SC,
		Strategy: Baseline,
		Timeout:  time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unknown {
		t.Fatalf("nanosecond timeout must give Unknown, got %v", rep.Verdict)
	}
}

// TestStrategyInvariance: all three strategies agree on every lit program
// under every model (determinism of verdicts; the paper's Table 3 relies on
// consistent True/False counts).
func TestStrategyInvariance(t *testing.T) {
	for _, b := range svcomp.BySubcategory("lit") {
		for _, mm := range memmodel.All() {
			var verdicts []Verdict
			for _, strat := range []Options{
				{Model: mm, Strategy: Baseline},
				{Model: mm, Strategy: ZPREMinus, Seed: 1},
				{Model: mm, Strategy: ZPRE, Seed: 2},
			} {
				rep, err := Verify(b.Program, strat)
				if err != nil {
					t.Fatal(err)
				}
				verdicts = append(verdicts, rep.Verdict)
			}
			if verdicts[0] != verdicts[1] || verdicts[1] != verdicts[2] {
				t.Errorf("%s/%v: verdicts diverge: %v", b.Name, mm, verdicts)
			}
		}
	}
}

// TestSeedDeterminism: the same seed yields identical statistics.
func TestSeedDeterminism(t *testing.T) {
	var prog = svcomp.BySubcategory("lit")[0].Program
	run := func() uint64 {
		rep, err := Verify(prog, Options{Model: TSO, Strategy: ZPRE, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return rep.SolverStats.Decisions + rep.SolverStats.Conflicts<<32
	}
	if run() != run() {
		t.Fatal("same seed must reproduce the identical search")
	}
}

func TestFindMinimalBound(t *testing.T) {
	// fib_bench_unsafe_2 needs bound >= 2 for the violation.
	var b *svcomp.Benchmark
	for _, x := range svcomp.All() {
		if x.Name == "fib_bench_unsafe_2" {
			xx := x
			b = &xx
		}
	}
	k, rep, err := FindMinimalBound(b.Program, Options{Model: SC, Strategy: ZPRE, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 || rep.Verdict != Unsafe {
		t.Fatalf("minimal bound = %d (verdict %v), want 2/unsafe", k, rep.Verdict)
	}
	// A safe program returns 0.
	for _, x := range svcomp.All() {
		if x.Name == "fib_bench_safe_1" {
			xx := x
			b = &xx
		}
	}
	k, rep, err = FindMinimalBound(b.Program, Options{Model: SC, Strategy: ZPRE}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if k != 0 || rep.Verdict != Safe {
		t.Fatalf("safe program: bound %d verdict %v", k, rep.Verdict)
	}
	// Loop-free programs short-circuit after bound 1.
	for _, x := range svcomp.All() {
		if x.Name == "fig2" {
			xx := x
			b = &xx
		}
	}
	k, _, err = FindMinimalBound(b.Program, Options{Model: TSO, Strategy: ZPRE}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("fig2/TSO minimal bound = %d, want 1", k)
	}
}

func TestVerifyEach(t *testing.T) {
	// Three assertions with distinct verdicts: thread-local always-true,
	// a racy one (violable), and a post invariant (safe).
	prog, err := ParseProgram("multi", `
shared x;
shared m;
thread t1 {
    lock(m); x = x + 1; unlock(m);
    assert(x >= 0 || x < 0);       // trivially true
}
thread t2 {
    x = x + 1;                     // unlocked: races with t1
}
main {
    assert(x == 2);                // violable: the lost update
    assert(x >= 1);                // safe: both threads write >= 1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := VerifyEach(prog, Options{Model: SC, Strategy: ZPRE, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d assertion reports", len(reps))
	}
	if reps[0].Verdict != Safe || reps[0].Thread != 1 {
		t.Errorf("assert 0: %+v", reps[0])
	}
	if reps[1].Verdict != Unsafe || reps[1].Thread != 0 {
		t.Errorf("assert 1: %+v (x==2 must be violable)", reps[1])
	}
	if reps[2].Verdict != Safe || reps[2].Thread != 0 {
		t.Errorf("assert 2: %+v (x>=1 must hold)", reps[2])
	}

	// Consistency with the combined check: the program is unsafe overall
	// iff some assertion is.
	rep, err := Verify(prog, Options{Model: SC, Strategy: ZPRE, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	anyUnsafe := false
	for _, r := range reps {
		if r.Verdict == Unsafe {
			anyUnsafe = true
		}
	}
	if (rep.Verdict == Unsafe) != anyUnsafe {
		t.Fatalf("combined verdict %v inconsistent with per-assert %v", rep.Verdict, reps)
	}
}

func TestVerifyEachAgreesWithVerifyAcrossCorpus(t *testing.T) {
	// For single-assertion programs the two entry points must agree.
	for _, b := range svcomp.BySubcategory("lit") {
		for _, mm := range memmodel.All() {
			reps, err := VerifyEach(b.Program, Options{Model: mm, Strategy: ZPRE, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			any := false
			for _, r := range reps {
				if r.Verdict == Unsafe {
					any = true
				}
			}
			rep, err := Verify(b.Program, Options{Model: mm, Strategy: ZPRE, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			if (rep.Verdict == Unsafe) != any {
				t.Errorf("%s/%v: Verify=%v but VerifyEach unsafe=%v", b.Name, mm, rep.Verdict, any)
			}
		}
	}
}

func TestVerifyWithProof(t *testing.T) {
	var fig2 *svcomp.Benchmark
	for _, b := range svcomp.All() {
		if b.Name == "fig2" {
			bb := b
			fig2 = &bb
		}
	}
	// Safe case: proof recorded and checked.
	rep, err := VerifyWithProof(fig2.Program, Options{Model: SC, Strategy: ZPRE, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe || !rep.ProofChecked {
		t.Fatalf("verdict %v, proofChecked %v", rep.Verdict, rep.ProofChecked)
	}
	// Unsafe case: the witness schedule is validated instead.
	rep, err = VerifyWithProof(fig2.Program, Options{Model: TSO, Strategy: ZPRE, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unsafe || !rep.ProofChecked {
		t.Fatalf("verdict %v, proofChecked %v", rep.Verdict, rep.ProofChecked)
	}
}

// TestCheckedVerificationAcrossCorpus runs the fully checked pipeline (proof
// checking for safe verdicts, witness validation for unsafe ones) across a
// slice of the corpus under every memory model.
func TestCheckedVerificationAcrossCorpus(t *testing.T) {
	subs := []string{"lit", "nondet", "divine", "driver-races", "ldv-races"}
	if testing.Short() {
		subs = []string{"lit"}
	}
	checked := 0
	for _, sub := range subs {
		for _, b := range svcomp.BySubcategory(sub) {
			for _, mm := range memmodel.All() {
				rep, err := VerifyWithProof(b.Program, Options{
					Model: mm, Strategy: ZPRE, Seed: 9, Unroll: b.MinBound,
				})
				if err != nil {
					t.Fatalf("%s/%v: %v", b.Name, mm, err)
				}
				if rep.Verdict == Unknown {
					t.Fatalf("%s/%v: unknown without budget", b.Name, mm)
				}
				if !rep.ProofChecked {
					t.Fatalf("%s/%v: verdict %v not checked", b.Name, mm, rep.Verdict)
				}
				checked++
			}
		}
	}
	t.Logf("checked verdicts: %d", checked)
}
