package smt

import (
	"runtime"
	"strconv"
	"testing"

	"zpre/internal/sat"
)

// TestNameTable pins what the variable-indexed name table derives:
// ordering atoms are named in VarName only, count as named for NameVar,
// and stay out of Names, NamedVars and BoolByName.
func TestNameTable(t *testing.T) {
	bd := NewBuilder()
	e0, e1 := bd.NewEvent("t1_0"), bd.NewEvent("t2_3")
	x := bd.NamedBool("rf_2_3_1_0")
	gate := bd.And(x, bd.NewBool())
	ord := bd.Before(e1, e0) // interned as ord_t1_0_t2_3, negated
	bd.NameVar(gate, "guard_1_1")
	bd.NameVar(gate, "guard_1_2") // already named: ignored
	bd.NameVar(ord, "guard_1_3")  // an ordering atom: ignored
	bd.NameVar(bd.True(), "guard_1_4")

	if got := bd.VarName(ord.Lit().Var()); got != "ord_t1_0_t2_3" {
		t.Errorf("VarName(ordering atom) = %q", got)
	}
	if got := bd.VarName(gate.Lit().Var()); got != "guard_1_1" {
		t.Errorf("VarName(gate) = %q", got)
	}
	if got := bd.VarName(sat.Var(bd.NumVars() + 5)); got != "" {
		t.Errorf("VarName(unknown) = %q", got)
	}
	want := map[string]sat.Var{"rf_2_3_1_0": x.Lit().Var(), "guard_1_1": gate.Lit().Var()}
	named := bd.NamedVars()
	if len(named) != len(want) {
		t.Errorf("NamedVars = %v, want %v", named, want)
	}
	for name, v := range want { //mapiter:ok membership checks only
		if named[name] != v {
			t.Errorf("NamedVars[%q] = %d, want %d", name, named[name], v)
		}
		if b, ok := bd.BoolByName(name); !ok || b.Lit() != sat.PosLit(v) {
			t.Errorf("BoolByName(%q) = %v, %v", name, b, ok)
		}
	}
	for _, name := range []string{"ord_t1_0_t2_3", "guard_1_2", "guard_1_3", "guard_1_4", ""} {
		if _, ok := bd.BoolByName(name); ok {
			t.Errorf("BoolByName(%q) found a variable", name)
		}
	}
	names := bd.Names()
	for v, name := range names {
		if name != "" && named[name] != sat.Var(v) {
			t.Errorf("Names()[%d] = %q, not in NamedVars", v, name)
		}
	}
	if v := ord.Lit().Var(); int(v) < len(names) && names[v] != "" {
		t.Errorf("Names() stores the ordering atom's name %q", names[v])
	}
}

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

// TestAssertClauseAllocs: on a warmed builder, asserting a 3-term clause
// allocates only when the solver's arena or clause list grows.
func TestAssertClauseAllocs(t *testing.T) {
	bd := NewBuilder()
	const n = 4096
	vars := make([]Bool, n)
	for i := range vars {
		vars[i] = bd.NewBool()
	}
	i := 0
	assert := func() {
		bd.AssertClause(bd.Not(vars[i%n]), vars[(i+1)%n], vars[(i+7)%n])
		i++
	}
	for j := 0; j < n; j++ {
		assert()
	}
	if got := allocsPerCall(n-1, assert); got >= 0.1 {
		t.Errorf("AssertClause of a 3-literal clause: %.3f allocations per call, want < 0.1", got)
	}
}

// TestNamedBoolAllocs: naming a fresh variable costs its name and nothing
// per call beyond the amortised growth of the builder's tables.
func TestNamedBoolAllocs(t *testing.T) {
	bd := NewBuilder()
	for i := 0; i < 4096; i++ {
		bd.NamedBool("warm_" + strconv.Itoa(i))
	}
	const name = "rf_1_2_3_4"
	if got := allocsPerCall(4096, func() { bd.NamedBool(name) }); got >= 0.1 {
		t.Errorf("NamedBool with a prebuilt name: %.3f allocations per call, want < 0.1", got)
	}
	i := 0
	if got := allocsPerCall(4096, func() { bd.NamedBool("v1_" + strconv.Itoa(i%100)); i++ }); got >= 1.1 {
		t.Errorf("NamedBool with a built name: %.3f allocations per call, want only the name's", got)
	}
}
