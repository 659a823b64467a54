package order

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"zpre/internal/sat"
)

// atomVar allocates sequential vars for tests.
type varAlloc struct{ next sat.Var }

func (a *varAlloc) fresh() sat.Var {
	v := a.next
	a.next++
	return v
}

func TestAssertCycleDetection(t *testing.T) {
	th := New(3)
	var va varAlloc
	ab := va.fresh()
	bc := va.fresh()
	ca := va.fresh()
	th.RegisterAtom(ab, 0, 1)
	th.RegisterAtom(bc, 1, 2)
	th.RegisterAtom(ca, 2, 0)
	if confl := th.Assert(sat.PosLit(ab)); confl != nil {
		t.Fatal("first edge cannot conflict")
	}
	if confl := th.Assert(sat.PosLit(bc)); confl != nil {
		t.Fatal("second edge cannot conflict")
	}
	confl := th.Assert(sat.PosLit(ca))
	if confl == nil {
		t.Fatal("closing the 0→1→2→0 cycle must conflict")
	}
	// The conflict clause must contain the negations of all three literals.
	want := map[sat.Lit]bool{sat.NegLit(ab): true, sat.NegLit(bc): true, sat.NegLit(ca): true}
	if len(confl) != 3 {
		t.Fatalf("conflict size %d, want 3: %v", len(confl), confl)
	}
	for _, l := range confl {
		if !want[l] {
			t.Fatalf("unexpected literal %v in conflict", l)
		}
	}
	// The rejected edge must not have been recorded.
	if th.AssertedCount() != 2 {
		t.Fatalf("asserted count %d, want 2", th.AssertedCount())
	}
}

func TestNegativeLiteralMeansReverseEdge(t *testing.T) {
	th := New(2)
	ab := sat.Var(0)
	th.RegisterAtom(ab, 0, 1)
	// ¬(0<1) asserts 1→0.
	if confl := th.Assert(sat.NegLit(ab)); confl != nil {
		t.Fatal("single reverse edge cannot conflict")
	}
	// Now asserting 0<1 via a second atom over the same pair would cycle;
	// model it with a fixed edge instead.
	th2 := New(2)
	th2.AddFixedEdge(0, 1)
	th2.RegisterAtom(ab, 0, 1)
	confl := th2.Assert(sat.NegLit(ab))
	if confl == nil {
		t.Fatal("reverse edge against fixed order must conflict")
	}
	// Fixed edges never appear in explanations: only ¬(¬ab) = ab remains.
	if len(confl) != 1 || confl[0] != sat.PosLit(ab) {
		t.Fatalf("conflict %v, want [ab]", confl)
	}
}

func TestPopToCount(t *testing.T) {
	th := New(3)
	ab, bc, ca := sat.Var(0), sat.Var(1), sat.Var(2)
	th.RegisterAtom(ab, 0, 1)
	th.RegisterAtom(bc, 1, 2)
	th.RegisterAtom(ca, 2, 0)
	th.Assert(sat.PosLit(ab))
	th.Assert(sat.PosLit(bc))
	th.PopToCount(1) // undo bc
	if th.AssertedCount() != 1 {
		t.Fatalf("count %d", th.AssertedCount())
	}
	// With bc gone, 2→0 no longer closes a cycle.
	if confl := th.Assert(sat.PosLit(ca)); confl != nil {
		t.Fatalf("unexpected conflict after pop: %v", confl)
	}
	// Re-asserting bc now closes it.
	if confl := th.Assert(sat.PosLit(bc)); confl == nil {
		t.Fatal("want conflict")
	}
}

func TestFixedAcyclic(t *testing.T) {
	th := New(3)
	th.AddFixedEdge(0, 1)
	th.AddFixedEdge(1, 2)
	if !th.FixedAcyclic() {
		t.Fatal("chain is acyclic")
	}
	th.AddFixedEdge(2, 0)
	if th.FixedAcyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestFixedImplications(t *testing.T) {
	th := New(4)
	th.AddFixedEdge(0, 1)
	th.AddFixedEdge(1, 2)
	a := sat.Var(0) // 0 before 2: implied true via fixed path
	b := sat.Var(1) // 3 before 0: undetermined
	c := sat.Var(2) // 2 before 0: implied false
	th.RegisterAtom(a, 0, 2)
	th.RegisterAtom(b, 3, 0)
	th.RegisterAtom(c, 2, 0)
	imps := th.FixedImplications()
	got := map[sat.Lit]bool{}
	for _, fi := range imps {
		got[fi.Lit] = true
	}
	if !got[sat.PosLit(a)] {
		t.Error("atom 0<2 should be implied true")
	}
	if !got[sat.NegLit(c)] {
		t.Error("atom 2<0 should be implied false")
	}
	if got[sat.PosLit(b)] || got[sat.NegLit(b)] {
		t.Error("atom 3<0 should be undetermined")
	}
}

func TestEagerPropagation(t *testing.T) {
	th := New(3)
	th.SetEagerPropagation(true)
	ab, bc, ac := sat.Var(0), sat.Var(1), sat.Var(2)
	th.RegisterAtom(ab, 0, 1)
	th.RegisterAtom(bc, 1, 2)
	th.RegisterAtom(ac, 0, 2)
	th.Assert(sat.PosLit(ab))
	th.Assert(sat.PosLit(bc))
	imps := th.Propagate()
	found := false
	for _, imp := range imps {
		if imp.Lit == sat.PosLit(ac) {
			found = true
			if imp.Reason[0] != imp.Lit {
				t.Fatal("implied literal must come first in reason")
			}
			if len(imp.Reason) < 2 {
				t.Fatal("reason must cite the causing edges")
			}
		}
	}
	if !found {
		t.Fatalf("0<2 should be propagated from 0<1,1<2; got %v", imps)
	}
	// Default mode never propagates.
	th2 := New(3)
	th2.RegisterAtom(ab, 0, 1)
	th2.Assert(sat.PosLit(ab))
	if imps := th2.Propagate(); imps != nil {
		t.Fatalf("default mode must not propagate, got %v", imps)
	}
}

func TestRelevant(t *testing.T) {
	th := New(2)
	v := sat.Var(3)
	th.RegisterAtom(v, 0, 1)
	if !th.Relevant(v) || th.Relevant(sat.Var(4)) {
		t.Fatal("Relevant broken")
	}
	a, b, ok := th.Atom(v)
	if !ok || a != 0 || b != 1 {
		t.Fatal("Atom broken")
	}
}

// hasCycleOffline checks for a cycle in an edge list by DFS (reference
// implementation for the property test).
func hasCycleOffline(n int, edges [][2]int32) bool {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	state := make([]int8, n)
	var visit func(u int32) bool
	visit = func(u int32) bool {
		state[u] = 1
		for _, v := range adj[u] {
			if state[v] == 1 || (state[v] == 0 && visit(v)) {
				return true
			}
		}
		state[u] = 2
		return false
	}
	for u := 0; u < n; u++ {
		if state[u] == 0 && visit(int32(u)) {
			return true
		}
	}
	return false
}

// TestQuickIncrementalMatchesOffline: inserting random edges one by one, the
// theory must accept exactly the prefixes that are acyclic, and an accepted
// state must always be acyclic offline.
func TestQuickIncrementalMatchesOffline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		th := New(n)
		var accepted [][2]int32
		for i := 0; i < 4*n; i++ {
			a := int32(rng.Intn(n))
			b := int32(rng.Intn(n))
			if a == b {
				continue
			}
			v := sat.Var(i)
			th.RegisterAtom(v, a, b)
			confl := th.Assert(sat.PosLit(v))
			wouldCycle := hasCycleOffline(n, append(append([][2]int32{}, accepted...), [2]int32{a, b}))
			if (confl != nil) != wouldCycle {
				return false
			}
			if confl == nil {
				accepted = append(accepted, [2]int32{a, b})
				if hasCycleOffline(n, accepted) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConflictIsRealCycle: every reported conflict's edges form a real
// cycle through the new edge.
func TestQuickConflictIsRealCycle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		th := New(n)
		atoms := map[sat.Var][2]int32{}
		for i := 0; i < 6*n; i++ {
			a := int32(rng.Intn(n))
			b := int32(rng.Intn(n))
			if a == b {
				continue
			}
			v := sat.Var(i)
			th.RegisterAtom(v, a, b)
			atoms[v] = [2]int32{a, b}
			confl := th.Assert(sat.PosLit(v))
			if confl == nil {
				continue
			}
			// Interpret the conflict: each ¬l corresponds to the edge l
			// asserted; their union must be cyclic.
			var edges [][2]int32
			for _, l := range confl {
				at := atoms[l.Var()]
				from, to := at[0], at[1]
				// l is the negation of the asserted literal; the asserted
				// literal is l.Neg().
				if l.Neg().IsNeg() {
					from, to = to, from
				}
				edges = append(edges, [2]int32{from, to})
			}
			if !hasCycleOffline(n, edges) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// exercise drives a theory over n events through fixed edges, atoms,
// assertions (some conflicting), a pop and an eager propagation round, and
// records every answer and counter.
func exercise(th *Theory, rng *rand.Rand, n int) []any {
	th.GrowTo(n)
	var out []any
	for i := 0; i+1 < n; i += 3 {
		th.AddFixedEdge(int32(i), int32(i+1))
	}
	out = append(out, th.FixedAcyclic())
	var vars []sat.Var
	for v := sat.Var(0); int(v) < 2*n; v++ {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a == b {
			continue
		}
		th.RegisterAtom(v, a, b)
		vars = append(vars, v)
	}
	out = append(out, th.FixedImplications())
	th.SetEagerPropagation(n%2 == 0)
	for i, v := range vars {
		confl := th.Assert(sat.MkLit(v, rng.Intn(2) == 1))
		out = append(out, append([]sat.Lit(nil), confl...), len(th.Propagate()))
		if i == len(vars)/2 {
			th.PopToCount(th.AssertedCount() / 2)
		}
	}
	return append(out, th.Acyclic(), th.AssertedCount(), th.Stats())
}

// TestResetMatchesNew: a theory Reset after serving a larger or a smaller
// instance answers every query exactly like New(0) does.
func TestResetMatchesNew(t *testing.T) {
	for i, sizes := range [][2]int{{30, 12}, {5, 20}, {17, 17}, {40, 40}} {
		th := New(0)
		// The last pair repeats the same instance, so every search after
		// the Reset meets the search marks the first run left behind.
		first := int64(1)
		if i == 3 {
			first = 2
		}
		exercise(th, rand.New(rand.NewSource(first)), sizes[0])
		th.Reset()
		// GrowTo extends into retained storage, so everything within it
		// must be as a new theory's: no search marks, no edges, no atoms.
		for i, m := range th.mark[:cap(th.mark)] {
			if m != 0 {
				t.Fatalf("sizes %v: node %d keeps search mark %d after Reset", sizes, i, m)
			}
		}
		for i, edges := range th.adj[:cap(th.adj)] {
			if len(edges) != 0 {
				t.Fatalf("sizes %v: node %d keeps %d edges after Reset", sizes, i, len(edges))
			}
		}
		for i, atoms := range th.atomsByNode[:cap(th.atomsByNode)] {
			if len(atoms) != 0 {
				t.Fatalf("sizes %v: node %d keeps %d atoms after Reset", sizes, i, len(atoms))
			}
		}
		got := fmt.Sprint(exercise(th, rand.New(rand.NewSource(2)), sizes[1]))
		want := fmt.Sprint(exercise(New(0), rand.New(rand.NewSource(2)), sizes[1]))
		if got != want {
			t.Fatalf("sizes %v: Reset theory differs from New:\n got  %s\n want %s", sizes, got, want)
		}
	}
}
