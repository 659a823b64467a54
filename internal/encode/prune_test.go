package encode

import (
	"testing"

	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/svcomp"
)

func lockedCounterProg() *cprog.Program {
	body := []cprog.Stmt{
		cprog.Lock{Mutex: "mtx"},
		cprog.Set("c", cprog.Add(cprog.V("c"), cprog.C(1))),
		cprog.Unlock{Mutex: "mtx"},
	}
	return &cprog.Program{
		Name:   "locked_counter",
		Shared: []cprog.SharedDecl{{Name: "c"}, {Name: "mtx"}},
		Threads: []*cprog.Thread{
			{Name: "t1", Body: body},
			{Name: "t2", Body: body},
		},
		Post: []cprog.Stmt{cprog.Assert{Cond: cprog.Eq(cprog.V("c"), cprog.C(2))}},
	}
}

func solveStatus(t *testing.T, p *cprog.Program, mm memmodel.Model, prune bool) sat.Status {
	t.Helper()
	vc, err := Program(p, Options{Model: mm, Width: 8, StaticPrune: prune})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vc.Builder.Solve(smt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Status
}

func TestStaticPruneOffByDefault(t *testing.T) {
	vc := mustEncode(t, lockedCounterProg(), memmodel.SC)
	if vc.Stats.RFPruned != 0 || vc.Stats.WSPruned != 0 {
		t.Fatalf("pruning must be off by default: %+v", vc.Stats)
	}
	if vc.Stats.StaticTime != 0 {
		t.Fatalf("static analysis ran during an unpruned encode (%v); it must wait for StaticAnalysis", vc.Stats.StaticTime)
	}
	if vc.StaticAnalysis() == nil {
		t.Fatal("static analysis should align on request even without pruning")
	}
	if vc.Stats.StaticTime == 0 {
		t.Error("StaticAnalysis did not account its time in Stats.StaticTime")
	}
}

func TestStaticPruneCounters(t *testing.T) {
	p := lockedCounterProg()
	for _, mm := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		full, err := Program(p, Options{Model: mm, Width: 8})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := Program(p, Options{Model: mm, Width: 8, StaticPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Stats.RFPruned+pruned.Stats.WSPruned == 0 {
			t.Fatalf("%v: lock benchmark should prune something: %+v", mm, pruned.Stats)
		}
		if pruned.Stats.RFVars+pruned.Stats.RFPruned != full.Stats.RFVars {
			t.Fatalf("%v: rf accounting: pruned %d + kept %d != full %d",
				mm, pruned.Stats.RFPruned, pruned.Stats.RFVars, full.Stats.RFVars)
		}
		if pruned.Stats.WSVars+pruned.Stats.WSPruned != full.Stats.WSVars {
			t.Fatalf("%v: ws accounting: pruned %d + kept %d != full %d",
				mm, pruned.Stats.WSPruned, pruned.Stats.WSVars, full.Stats.WSVars)
		}
	}
}

func TestStaticPruneSameVerdicts(t *testing.T) {
	progs := []*cprog.Program{fig2(), lockedCounterProg(), svcomp.Fig2()}
	for _, p := range progs {
		for _, mm := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
			full := solveStatus(t, p, mm, false)
			pruned := solveStatus(t, p, mm, true)
			if full != pruned {
				t.Fatalf("%s/%v: verdict changed by pruning: full=%v pruned=%v",
					p.Name, mm, full, pruned)
			}
		}
	}
}

func TestLockedCounterSafeWithPrune(t *testing.T) {
	// The locked counter is safe under every model; the pruned encoding must
	// agree (this is where an unsound rf prune would first show up as a
	// spurious UNSAT → SAT flip or vice versa).
	for _, mm := range []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO} {
		if st := solveStatus(t, lockedCounterProg(), mm, true); st != sat.Unsat {
			t.Fatalf("%v: locked counter should be safe (unsat), got %v", mm, st)
		}
	}
}

// TestStaticAlignmentCorpus asserts that the analysis walk enumerates
// exactly the encoder's events for every bundled benchmark — the invariant
// the lockset prune and the score-seeded strategies depend on.
func TestStaticAlignmentCorpus(t *testing.T) {
	for _, b := range svcomp.All() {
		unrolled := cprog.Unroll(b.Program, b.MinBound, cprog.UnwindAssume)
		vc, err := Program(unrolled, Options{Model: memmodel.SC, Width: 8})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if vc.StaticAnalysis() == nil {
			t.Errorf("%s: static analysis misaligned with encoder events", b.Name)
		}
	}
}

// TestStaticAnalysisIncrementalVC: the incremental encoder's VC keeps no
// program to analyse, so StaticAnalysis reports none rather than failing —
// what zpre+static gets on the incremental path.
func TestStaticAnalysisIncrementalVC(t *testing.T) {
	inc, err := NewIncremental(lockedCounterProg(), Options{Model: memmodel.SC, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Extend(); err != nil {
		t.Fatal(err)
	}
	if st := inc.VC().StaticAnalysis(); st != nil {
		t.Fatalf("incremental VC produced a static analysis: %+v", st)
	}
}

// lockShadowedInitProg is a program whose MHB closure fixes an rf edge only
// with the help of rfPrunable's lockset criterion: t1's x = 1 is
// overwritten by x = 9 inside the same critical section, so no read in
// t2's critical section can observe it, and only the static analysis's
// locksets show that.
func lockShadowedInitProg(t *testing.T) *cprog.Program {
	t.Helper()
	p, err := cprog.Parse("lock_shadowed_init", `shared x = 5; shared m; shared y;
thread t1 { lock(m); x = 1; x = 9; unlock(m); }
thread t2 { lock(m); assume(x < 4); y = x; unlock(m); }
main { assert(y != 7); }`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMHBUsesLocksetWithoutPrune: the MHB closure consults the static
// analysis's locksets whether or not StaticPrune is set, so an MHB encode
// runs the analysis itself. Without it, the closure above fixes nothing.
func TestMHBUsesLocksetWithoutPrune(t *testing.T) {
	for _, mm := range memmodel.All() {
		vc, err := Program(lockShadowedInitProg(t), Options{Model: mm, Width: 4, MHB: true})
		if err != nil {
			t.Fatal(err)
		}
		st := vc.Stats
		if st.MHBFixedRF != 1 || st.MHBFixedFR != 1 || st.MHBPruned != 2 {
			t.Errorf("%v: MHB counters rf=%d fr=%d pruned=%d, want 1 1 2",
				mm, st.MHBFixedRF, st.MHBFixedFR, st.MHBPruned)
		}
		if st.StaticTime == 0 {
			t.Errorf("%v: the MHB encode did not run the static analysis", mm)
		}
	}
}
