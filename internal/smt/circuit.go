// Package smt provides the formula-building and solving layer on top of the
// CDCL core: Boolean gates with Tseitin encoding and structural hashing,
// fixed-width bit-vector terms compiled by bit-blasting (as CBMC does), and
// ordering atoms over event timestamps delegated to the ordering theory.
//
// The Builder is the frontend/backend seam of the paper: the frontend
// (internal/encode) constructs the verification condition through it, naming
// the interference variables in the rf_/ws_ scheme; the backend (Solve)
// reconstructs the decision order from those names via internal/core.
package smt

import (
	"zpre/internal/sat"
)

// Bool is a compiled Boolean term: a SAT literal.
type Bool struct{ lit sat.Lit }

// Lit exposes the underlying SAT literal (used by internal/core and tests).
func (b Bool) Lit() sat.Lit { return b.lit }

type gateKey struct {
	op   uint8
	a, b sat.Lit
	c    sat.Lit
}

const (
	opAnd uint8 = iota
	opXor
	opIte
)

// True returns the constant true term.
func (bd *Builder) True() Bool { return Bool{bd.trueLit} }

// False returns the constant false term.
func (bd *Builder) False() Bool { return Bool{bd.trueLit.Neg()} }

// BoolConst returns the constant term for v.
func (bd *Builder) BoolConst(v bool) Bool {
	if v {
		return bd.True()
	}
	return bd.False()
}

// Not negates a Boolean term (free: literal complement).
func (bd *Builder) Not(a Bool) Bool { return Bool{a.lit.Neg()} }

// NewBool introduces a fresh unconstrained Boolean variable.
func (bd *Builder) NewBool() Bool { return Bool{sat.PosLit(bd.solver.NewVar())} }

// newGate introduces a Tseitin gate output. Gate variables are marked
// auxiliary in the solver: the encoding defines them in both directions, so
// once the primary variables are assigned, propagation fixes every gate —
// deferring them in the decision order removes their decisions entirely.
func (bd *Builder) newGate() sat.Lit {
	v := bd.solver.NewVar()
	bd.solver.SetPhase(v, false)
	return sat.PosLit(v)
}

// NameVar attaches a name to an existing term's variable (used by the
// encoder to tag branch-condition gates for the control-flow heuristic).
// Constants and already-named variables are left untouched.
func (bd *Builder) NameVar(b Bool, name string) {
	v := b.lit.Var()
	if v == bd.trueLit.Var() {
		return
	}
	if bd.name(v) != "" {
		return
	}
	if _, atom := bd.atomOf(v); atom {
		return
	}
	bd.setName(v, name)
}

// NamedBool introduces a fresh Boolean variable with a name visible to the
// backend (decision strategies recognise interference variables by name).
func (bd *Builder) NamedBool(name string) Bool {
	b := bd.NewBool()
	bd.setName(b.lit.Var(), name)
	return b
}

// And returns the conjunction of two terms, building a Tseitin gate unless a
// constant/structural simplification applies.
func (bd *Builder) And(a, b Bool) Bool {
	t, f := bd.trueLit, bd.trueLit.Neg()
	switch {
	case a.lit == f || b.lit == f:
		return bd.False()
	case a.lit == t:
		return b
	case b.lit == t:
		return a
	case a.lit == b.lit:
		return a
	case a.lit == b.lit.Neg():
		return bd.False()
	}
	x, y := a.lit, b.lit
	if x > y {
		x, y = y, x
	}
	key := gateKey{op: opAnd, a: x, b: y}
	if g, ok := bd.gates[key]; ok {
		return Bool{g}
	}
	g := bd.newGate()
	bd.solver.AddClause(g.Neg(), x)
	bd.solver.AddClause(g.Neg(), y)
	bd.solver.AddClause(g, x.Neg(), y.Neg())
	bd.gates[key] = g
	return Bool{g}
}

// Or returns the disjunction of two terms.
func (bd *Builder) Or(a, b Bool) Bool {
	return bd.Not(bd.And(bd.Not(a), bd.Not(b)))
}

// AndN folds And over any number of terms (true for none).
func (bd *Builder) AndN(terms ...Bool) Bool {
	acc := bd.True()
	for _, t := range terms {
		acc = bd.And(acc, t)
	}
	return acc
}

// OrN folds Or over any number of terms (false for none).
func (bd *Builder) OrN(terms ...Bool) Bool {
	acc := bd.False()
	for _, t := range terms {
		acc = bd.Or(acc, t)
	}
	return acc
}

// Implies returns a → b.
func (bd *Builder) Implies(a, b Bool) Bool { return bd.Or(bd.Not(a), b) }

// Xor returns the exclusive or of two terms.
func (bd *Builder) Xor(a, b Bool) Bool {
	t, f := bd.trueLit, bd.trueLit.Neg()
	switch {
	case a.lit == f:
		return b
	case b.lit == f:
		return a
	case a.lit == t:
		return bd.Not(b)
	case b.lit == t:
		return bd.Not(a)
	case a.lit == b.lit:
		return bd.False()
	case a.lit == b.lit.Neg():
		return bd.True()
	}
	x, y := a.lit, b.lit
	// Canonicalise: strip signs into a parity so XOR(a,b), XOR(~a,b), ... share
	// one gate.
	neg := x.IsNeg() != y.IsNeg()
	if x.IsNeg() {
		x = x.Neg()
	}
	if y.IsNeg() {
		y = y.Neg()
	}
	if x > y {
		x, y = y, x
	}
	key := gateKey{op: opXor, a: x, b: y}
	g, ok := bd.gates[key]
	if !ok {
		g = bd.newGate()
		bd.solver.AddClause(g.Neg(), x, y)
		bd.solver.AddClause(g.Neg(), x.Neg(), y.Neg())
		bd.solver.AddClause(g, x.Neg(), y)
		bd.solver.AddClause(g, x, y.Neg())
		bd.gates[key] = g
	}
	if neg {
		return Bool{g.Neg()}
	}
	return Bool{g}
}

// Iff returns a ↔ b.
func (bd *Builder) Iff(a, b Bool) Bool { return bd.Not(bd.Xor(a, b)) }

// IteBool returns if c then t else e over Booleans.
func (bd *Builder) IteBool(c, t, e Bool) Bool {
	tt, ff := bd.trueLit, bd.trueLit.Neg()
	switch {
	case c.lit == tt:
		return t
	case c.lit == ff:
		return e
	case t.lit == e.lit:
		return t
	case t.lit == e.lit.Neg():
		return bd.Xor(c, e) // c ? ~e : e
	case t.lit == tt:
		return bd.Or(c, e)
	case t.lit == ff:
		return bd.And(bd.Not(c), e)
	case e.lit == tt:
		return bd.Or(bd.Not(c), t)
	case e.lit == ff:
		return bd.And(c, t)
	}
	key := gateKey{op: opIte, a: c.lit, b: t.lit, c: e.lit}
	if g, ok := bd.gates[key]; ok {
		return Bool{g}
	}
	g := bd.newGate()
	bd.solver.AddClause(g.Neg(), c.lit.Neg(), t.lit)
	bd.solver.AddClause(g.Neg(), c.lit, e.lit)
	bd.solver.AddClause(g, c.lit.Neg(), t.lit.Neg())
	bd.solver.AddClause(g, c.lit, e.lit.Neg())
	// Redundant but propagation-strengthening clauses.
	bd.solver.AddClause(g.Neg(), t.lit, e.lit)
	bd.solver.AddClause(g, t.lit.Neg(), e.lit.Neg())
	bd.gates[key] = g
	return Bool{g}
}
