package sat

import (
	"runtime"
	"testing"
)

// allocsPerCall is testing.AllocsPerRun without its rounding down to a whole
// number: the mean heap allocations per call of f over n calls.
func allocsPerCall(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestAddClauseAllocs pins the allocation-free clause intake: on a warmed
// solver, adding a 3-literal clause allocates only when the arena or the
// clause list outgrows its capacity. Each pass over the variables gives
// every watched literal one more watcher, so after the warm-up pass the
// measured pass stays inside the lists' first (slab) capacity.
func TestAddClauseAllocs(t *testing.T) {
	s := New()
	const nVars = 4096
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	i := 0
	clause := make([]Lit, 3)
	add := func() {
		clause[0] = NegLit(Var(i % nVars))
		clause[1] = PosLit(Var((i + 1) % nVars))
		clause[2] = PosLit(Var((i + 7) % nVars))
		i++
		s.AddClause(clause...)
	}
	for j := 0; j < nVars; j++ {
		add()
	}
	if got := allocsPerCall(nVars-1, add); got >= 0.1 {
		t.Errorf("AddClause of a 3-literal clause: %.3f allocations per call, want < 0.1", got)
	}
	if len(s.addScratch) != 0 {
		t.Errorf("AddClause left %d literals in its scratch", len(s.addScratch))
	}
}

// TestAddClauseScratchEmptyOnEveryPath checks that each early return of
// AddClause hands the scratch back empty: satisfied, tautological, unit,
// and a clause that makes the formula unsatisfiable.
func TestAddClauseScratchEmptyOnEveryPath(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	steps := []struct {
		name string
		lits []Lit
		want bool
	}{
		{"binary", []Lit{PosLit(a), PosLit(b)}, true},
		{"unit", []Lit{PosLit(c)}, true},
		{"satisfied", []Lit{NegLit(a), PosLit(c)}, true},
		{"tautology", []Lit{PosLit(a), NegLit(b), NegLit(a)}, true},
		{"false literal dropped", []Lit{NegLit(c), PosLit(a), PosLit(a)}, true},
		{"empty after simplification", []Lit{NegLit(c)}, false},
	}
	for _, st := range steps {
		if got := s.AddClause(st.lits...); got != st.want {
			t.Errorf("%s: AddClause = %v, want %v", st.name, got, st.want)
		}
		if len(s.addScratch) != 0 {
			t.Errorf("%s: scratch left with %d literals", st.name, len(s.addScratch))
		}
	}
}

// TestWatchSlabNoAliasing grows watch lists that share one slab block past
// their slab capacity and checks that every list still holds exactly its
// own watchers.
func TestWatchSlabNoAliasing(t *testing.T) {
	s := New()
	const nVars = 8
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	want := map[Lit][]ClauseRef{}
	for round := 0; round < 3*watchSlabInit; round++ {
		for v := 0; v < nVars; v++ {
			p := PosLit(Var(v))
			r := ClauseRef(round*nVars + v)
			s.watch(p, watcher{r, NegLit(Var(v))})
			want[p] = append(want[p], r)
		}
	}
	for p, refs := range want {
		ws := s.watches[p]
		if len(ws) != len(refs) {
			t.Fatalf("%v: %d watchers, want %d", p, len(ws), len(refs))
		}
		for i, w := range ws {
			if w.ref != refs[i] || w.blocker != NegLit(p.Var()) {
				t.Fatalf("%v: watcher %d is %+v, want ref %d", p, i, w, refs[i])
			}
		}
	}
}
