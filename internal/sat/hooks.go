package sat

// Theory is the interface a theory solver implements to participate in the
// DPLL(T) loop. The SAT core calls Assert for every trail literal the theory
// has registered interest in (via Relevant), in trail order, after each
// Boolean propagation fixpoint. The theory signals a conflict by returning a
// conflict clause: a set of literals all currently false whose conjunction of
// negations is theory-inconsistent. Backtracking is communicated with
// PopToCount, restoring the theory to the state after the first n Asserts.
type Theory interface {
	// Relevant reports whether the theory wants to observe assignments to v.
	Relevant(v Var) bool

	// Assert informs the theory that l became true. It returns nil when the
	// theory state stays consistent, or a conflict clause (every literal in
	// it is false under the current assignment) when it does not. When a
	// conflict is returned the assertion is NOT recorded: the solver will
	// backtrack and re-assert surviving literals.
	Assert(l Lit) []Lit

	// AssertedCount returns the number of currently recorded assertions.
	AssertedCount() int

	// PopToCount undoes recorded assertions beyond the first n.
	PopToCount(n int)

	// Propagate returns theory-implied literals discovered since the last
	// call, each with an explanation clause in which the implied literal
	// comes first and every other literal is currently false. Returning nil
	// is always allowed; propagation is an optimisation, not a soundness
	// requirement, because Assert will eventually reject bad extensions.
	Propagate() []TheoryImplication

	// FinalCheck runs when a full Boolean assignment is reached. It returns
	// nil if the assignment is theory-consistent, or a conflict clause.
	FinalCheck() []Lit
}

// TheoryImplication is a literal forced by the theory together with its
// clause explanation (implied literal first, all others false).
type TheoryImplication struct {
	Lit    Lit
	Reason []Lit
}

// ProofRecorder receives the solver's inference trace: input clauses,
// learnt clauses (Boolean resolvents, checkable by reverse unit
// propagation), theory lemmas (valid in the attached theory, checkable by
// replaying them against it) and deletions. A recorded trace ending in the
// empty learnt clause is an independently checkable proof of
// unsatisfiability (see internal/proof). The slices are only valid for the
// duration of the call (they may be solver scratch or arena storage), so an
// implementation copies what it keeps.
type ProofRecorder interface {
	// Input records a problem clause as given to AddClause.
	Input(lits []Lit)
	// Learnt records a clause derived by conflict analysis (nil/empty =
	// the empty clause: unsatisfiability established).
	Learnt(lits []Lit)
	// TheoryLemma records a clause supplied by the theory solver (conflict
	// explanation or propagation reason).
	TheoryLemma(lits []Lit)
	// Deleted records removal of a learnt clause from the database.
	Deleted(lits []Lit)
}

// Decider chooses decision literals ahead of the built-in VSIDS order.
// Next returns LitUndef to defer to VSIDS.
type Decider interface {
	// Next returns the next decision literal among unassigned variables, or
	// LitUndef to fall back to the solver's default heuristic. value reports
	// the current assignment of a variable.
	Next(value func(Var) LBool) Lit

	// OnBacktrack tells the strategy that the solver undid assignments; any
	// internal "first unassigned" cursors must be rewound.
	OnBacktrack()
}
