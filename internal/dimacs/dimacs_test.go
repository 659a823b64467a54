package dimacs

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"zpre/internal/sat"
)

func TestParseBasic(t *testing.T) {
	src := `c example
p cnf 3 2
1 -2 0
2 3 0
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 3 || len(f.Clauses) != 2 {
		t.Fatalf("parsed %d vars %d clauses", f.NumVars, len(f.Clauses))
	}
	if f.Clauses[0][0] != sat.PosLit(0) || f.Clauses[0][1] != sat.NegLit(1) {
		t.Fatalf("clause 0: %v", f.Clauses[0])
	}
}

func TestParseMultilineClauseAndMissingZero(t *testing.T) {
	src := "p cnf 2 2\n1\n2 0\n-1 -2"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 2 || len(f.Clauses[0]) != 2 || len(f.Clauses[1]) != 2 {
		t.Fatalf("clauses: %v", f.Clauses)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"clause first", "1 2 0", "before problem line"},
		{"bad p line", "p dnf 2 2", "malformed problem"},
		{"dup p line", "p cnf 1 0\np cnf 1 0", "duplicate"},
		{"bad literal", "p cnf 2 1\nx 0", "bad literal"},
		{"out of range", "p cnf 2 1\n3 0", "out of range"},
		{"count mismatch", "p cnf 2 5\n1 0", "declared 5 clauses"},
	}
	for _, tc := range cases {
		if _, err := Parse(strings.NewReader(tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSolveThroughDimacs(t *testing.T) {
	// (1∨2) ∧ ¬1 ∧ (¬2∨1) is unsatisfiable: ¬1 forces 2 (clause 1), but
	// clause 3 then forces 1.
	f, err := Parse(strings.NewReader("p cnf 2 3\n1 2 0\n-1 0\n-2 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := sat.New()
	LoadInto(s, f)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("want unsat, got %v", got)
	}

	// A satisfiable instance: model line format and correctness.
	f2, err := Parse(strings.NewReader("p cnf 3 2\n1 -2 0\n2 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s2 := sat.New()
	LoadInto(s2, f2)
	if s2.Solve() != sat.Sat {
		t.Fatal("want sat")
	}
	m := Model(s2, f2.NumVars)
	if !strings.HasPrefix(m, "v ") || !strings.HasSuffix(m, " 0") {
		t.Fatalf("model format: %q", m)
	}
	for _, c := range f2.Clauses {
		ok := false
		for _, l := range c {
			if s2.ValueLit(l) == sat.LTrue {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("model does not satisfy %v", c)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(10)
		formula := &Formula{NumVars: nv}
		for i := 0; i < rng.Intn(20); i++ {
			var c []sat.Lit
			for j := 0; j <= rng.Intn(4); j++ {
				c = append(c, sat.MkLit(sat.Var(rng.Intn(nv)), rng.Intn(2) == 1))
			}
			formula.Clauses = append(formula.Clauses, c)
		}
		var buf bytes.Buffer
		if err := Write(&buf, formula); err != nil {
			return false
		}
		back, err := Parse(&buf)
		if err != nil {
			return false
		}
		if back.NumVars != formula.NumVars || len(back.Clauses) != len(formula.Clauses) {
			return false
		}
		for i := range formula.Clauses {
			if len(back.Clauses[i]) != len(formula.Clauses[i]) {
				return false
			}
			for j := range formula.Clauses[i] {
				if back.Clauses[i][j] != formula.Clauses[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetAcrossCorpus runs the solver-reuse check over the DIMACS corpus:
// for each instance A and its successor B (in file order, each under a
// deterministic assumption), it solves A, Resets the solver, solves B, and
// requires the status, model, conflict core and Stats of a new solver
// solving B.
func TestResetAcrossCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(paths) < 2 {
		t.Fatalf("testdata corpus: %v (%d files)", err, len(paths))
	}
	formulas := make([]*Formula, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if formulas[i], err = Parse(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	assume := func(i int) []sat.Lit {
		if formulas[i].NumVars == 0 {
			return nil
		}
		return []sat.Lit{sat.MkLit(0, i%2 == 1)}
	}
	solve := func(s *sat.Solver, i int) string {
		LoadInto(s, formulas[i])
		st := s.SolveWithAssumptions(assume(i)...)
		return fmt.Sprintf("%v %s core=%v stats=%+v mem=%d",
			st, Model(s, formulas[i].NumVars), s.ConflictCore(), s.Stats(), s.MemApprox())
	}
	for i := range formulas {
		j := (i + 1) % len(formulas)
		s := sat.New()
		solve(s, i)
		s.Reset()
		got := solve(s, j)
		if want := solve(sat.New(), j); got != want {
			t.Errorf("%s after %s: Reset solver differs from a new one:\n got  %s\n want %s",
				paths[j], paths[i], got, want)
		}
	}
}
