package smt

import (
	"fmt"
	"slices"
	"testing"

	"zpre/internal/sat"
)

// buildInstance encodes a small ordering-plus-arithmetic instance whose
// size depends on n: named bit-vectors and Booleans, gates, ordering atoms
// over n events and a fixed chain, so the solve exercises the theory.
func buildInstance(bd *Builder, n int) []Bool {
	x := bd.NamedBV(fmt.Sprintf("x%d", n), 8)
	y := bd.NamedBV("y", 8)
	bd.AssertEq(bd.BVAdd(x, y), bd.BVConst(uint64(3*n), 8))
	bd.Assert(bd.BVUlt(y, x))
	evs := make([]EventID, n)
	for i := range evs {
		evs[i] = bd.NewEvent(fmt.Sprintf("e%d", i))
	}
	for i := 0; i+2 < n; i += 2 {
		bd.OrderFixed(evs[i], evs[i+2])
	}
	var outs []Bool
	for i := 0; i+1 < n; i++ {
		b := bd.Before(evs[i+1], evs[i])
		rf := bd.NamedBool(fmt.Sprintf("rf_%d_0_%d_1", i, i+1))
		bd.AssertClause(bd.Not(rf), b)
		outs = append(outs, rf, b)
	}
	bd.Assert(bd.OrN(outs[:len(outs)/2]...))
	return outs
}

// observe solves and records everything observable about the instance.
func observe(t *testing.T, bd *Builder, outs []Bool) string {
	t.Helper()
	res, err := bd.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]bool, len(outs))
	for i, o := range outs {
		vals[i] = bd.Value(o)
	}
	names := make([]string, bd.NumVars())
	for v := range names {
		names[v] = bd.VarName(sat.Var(v))
	}
	return fmt.Sprintf("%v %+v %+v %v vars=%d clauses=%d names=%v table=%v",
		res.Status, res.Stats, res.OrderStats, vals, bd.NumVars(), bd.NumClauses(), names,
		slices.Clone(bd.Names()))
}

// TestReleasedBuilderMatchesNew: an instance built on recycled storage —
// a larger and a smaller instance released before it — is identical to
// the same instance on storage that was never pooled.
func TestReleasedBuilderMatchesNew(t *testing.T) {
	for _, n := range []int{3, 9, 5} {
		fresh, _ := pool.New().(*workspace).builder(false)
		want := observe(t, fresh, buildInstance(fresh, n))

		for _, prev := range []int{12, 2} {
			bd := NewBuilder()
			observe(t, bd, buildInstance(bd, prev))
			bd.Release()
			bd = NewBuilder()
			if got := observe(t, bd, buildInstance(bd, n)); got != want {
				t.Fatalf("n=%d after n=%d: recycled builder differs:\n got  %s\n want %s", n, prev, got, want)
			}
			bd.Release()
		}
	}
}

// TestDoubleReleasePoolsOnce: a second Release is a no-op, so the two
// builders created next never share storage.
func TestDoubleReleasePoolsOnce(t *testing.T) {
	bd := NewBuilder()
	bd.Release()
	bd.Release()
	a, b := NewBuilder(), NewBuilder()
	if a.workspace == b.workspace {
		t.Fatal("double Release pooled one workspace twice")
	}
	a.Release()
	b.Release()
}

// TestReleasedBuilderPanics: using a released builder fails loudly rather
// than reaching storage that now serves another instance.
func TestReleasedBuilderPanics(t *testing.T) {
	uses := map[string]func(bd *Builder){
		"NewBool": func(bd *Builder) { bd.NewBool() },
		"Assert":  func(bd *Builder) { bd.Assert(bd.True()) },
		"Solve":   func(bd *Builder) { _, _ = bd.Solve(Options{}) },
		"Value":   func(bd *Builder) { bd.Value(Bool{sat.PosLit(0)}) },
		"Names":   func(bd *Builder) { bd.Names() },
		"VarName": func(bd *Builder) { bd.VarName(0) },
		"Solver":  func(bd *Builder) { bd.Solver() },
	}
	for name, use := range uses {
		bd := NewBuilder()
		bd.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released builder did not panic", name)
				}
			}()
			use(bd)
		}()
	}
}

// TestProofTraceOutlivesRelease: the proof trace is the caller's, and the
// recycled solver no longer records into it.
func TestProofTraceOutlivesRelease(t *testing.T) {
	bd, tr := NewBuilderWithProof()
	x := bd.NewBool()
	bd.Assert(x)
	bd.Assert(bd.Not(x))
	if res, err := bd.Solve(Options{}); err != nil || res.Status != sat.Unsat {
		t.Fatalf("contradiction: %v %v", res.Status, err)
	}
	if err := bd.CheckProof(tr); err != nil {
		t.Fatal(err)
	}
	lines := len(tr.Lines)
	bd.Release()
	next := NewBuilder()
	next.Assert(next.NewBool())
	if _, err := next.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Lines) != lines {
		t.Fatalf("released builder's trace grew from %d to %d lines", lines, len(tr.Lines))
	}
	next.Release()
}
