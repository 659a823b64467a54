package smt

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"zpre/internal/order"
	"zpre/internal/proof"
	"zpre/internal/sat"
)

// EventID identifies a memory-access event for the ordering theory; it is an
// index into the builder's event table (the node set of the EOG).
type EventID int32

// Builder constructs a verification-condition formula: Boolean structure and
// bit-vector arithmetic are compiled to CNF immediately; ordering atoms over
// events are registered with the ordering theory at Solve time.
//
// Every builder's storage comes from a package pool. Release returns it
// there once the instance is finished with, so the next builder reuses the
// solver's arena and watch lists, the ordering theory and the builder's own
// tables instead of allocating them afresh. A released builder must not be
// used again: every method then panics (see Release).
type Builder struct {
	// workspace is the pooled storage; nil once released, so any use of a
	// released builder dereferences nil instead of reaching storage that
	// now belongs to another instance.
	*workspace
}

// workspace is a builder's reusable storage (see Builder.Release).
type workspace struct {
	solver  *sat.Solver
	trueLit sat.Lit

	gates map[gateKey]sat.Lit
	// names is the variable-indexed name table: names[v] is the name given
	// to v by NamedBool or NameVar, "" for unnamed variables and for
	// ordering atoms (whose ord_ names VarName renders on demand). It may be
	// shorter than the variable count; missing entries are unnamed.
	names    []string
	named    int // number of non-empty entries in names
	bvByName map[string]BV
	clause   []sat.Lit // AssertClause's reused literal buffer

	eventNames []string
	fixedEdges [][2]int32
	atomVars   map[[2]int32]sat.Var // canonical (a,b) with a<b → atom var "a before b"
	atomList   []registeredAtom

	theory *order.Theory // fed by syncTheory at each Solve

	// Incremental synchronisation state: how much of the event/edge/atom
	// tables has been pushed into the theory, which fixed-implication units
	// are already installed, and whether a post-solve fixed edge closed a
	// cycle with a root-asserted atom (root-level unsat).
	pushedEvents int
	pushedFixed  int
	pushedAtoms  int
	fixedUnits   map[sat.Var]bool
	rootUnsat    bool

	asserted int // number of top-level assertions (for reporting)
}

type registeredAtom struct {
	v    sat.Var
	a, b int32
}

// pool recycles builder storage between instances.
var pool = sync.Pool{New: func() any {
	return &workspace{
		solver:     sat.New(),
		gates:      map[gateKey]sat.Lit{},
		bvByName:   map[string]BV{},
		atomVars:   map[[2]int32]sat.Var{},
		theory:     order.New(0),
		fixedUnits: map[sat.Var]bool{},
	}
}}

// reset empties the workspace's tables and solver, keeping their storage.
// Name strings are dropped so the pool does not keep them alive.
func (w *workspace) reset() {
	w.solver.Reset()
	w.theory.Reset()
	clear(w.gates)
	clear(w.bvByName)
	clear(w.atomVars)
	clear(w.fixedUnits)
	clear(w.names)
	clear(w.eventNames)
	*w = workspace{
		solver:     w.solver,
		gates:      w.gates,
		names:      w.names[:0],
		bvByName:   w.bvByName,
		clause:     w.clause[:0],
		eventNames: w.eventNames[:0],
		fixedEdges: w.fixedEdges[:0],
		atomVars:   w.atomVars,
		atomList:   w.atomList[:0],
		theory:     w.theory,
		fixedUnits: w.fixedUnits,
	}
}

// NewBuilder returns an empty formula builder.
func NewBuilder() *Builder {
	bd, _ := newBuilder(false)
	return bd
}

// NewBuilderWithProof returns a builder whose solver records its inference
// trace; after an unsat Solve, CheckProof validates the trace independently.
// The trace belongs to the caller and stays valid after Release.
func NewBuilderWithProof() (*Builder, *proof.Trace) {
	return newBuilder(true)
}

func newBuilder(withProof bool) (*Builder, *proof.Trace) {
	return pool.Get().(*workspace).builder(withProof)
}

// builder starts a builder on the empty workspace w.
func (w *workspace) builder(withProof bool) (*Builder, *proof.Trace) {
	var tr *proof.Trace
	if withProof {
		tr = &proof.Trace{}
		w.solver.Proof = tr
	}
	t := w.solver.NewVar() // variable 0 is the constant true
	w.solver.AddClause(sat.PosLit(t))
	w.trueLit = sat.PosLit(t)
	return &Builder{w}, tr
}

// Release resets the builder and returns its storage to the pool for the
// next NewBuilder. After Release the builder, its solver (Solver), its name
// table (Names) and its model (Value, BVValue) are invalid, and any method
// call panics; a recorded proof trace stays the caller's. Releasing twice
// is a no-op.
func (bd *Builder) Release() {
	w := bd.workspace
	if w == nil {
		return
	}
	bd.workspace = nil
	w.reset()
	pool.Put(w)
}

// CheckProof validates a trace recorded by this builder's solver against an
// independent RUP checker, with the builder's ordering atoms and fixed
// edges validating the theory lemmas. It is meaningful after an unsat
// Solve result with no assumptions.
func (bd *Builder) CheckProof(tr *proof.Trace) error {
	atoms := make(map[sat.Var][2]int32, len(bd.atomList))
	for _, a := range bd.atomList {
		atoms[a.v] = [2]int32{a.a, a.b}
	}
	fixed := make([][2]int32, len(bd.fixedEdges))
	copy(fixed, bd.fixedEdges)
	return proof.Check(tr, bd.solver.NVars(),
		proof.OrderValidator(len(bd.eventNames), atoms, fixed))
}

// Solver exposes the underlying SAT solver (for tests and advanced use).
func (bd *Builder) Solver() *sat.Solver { return bd.solver }

// NumVars returns the number of SAT variables allocated so far.
func (bd *Builder) NumVars() int { return bd.solver.NVars() }

// NumClauses returns the number of problem clauses added so far.
func (bd *Builder) NumClauses() int { return bd.solver.NClauses() }

// NumAssertions returns the number of top-level Assert calls.
func (bd *Builder) NumAssertions() int { return bd.asserted }

// VarName returns the name of a named variable ("" if unnamed). Ordering
// atoms are named ord_<a>_<b> after their two events, rendered on demand.
func (bd *Builder) VarName(v sat.Var) string {
	if name := bd.name(v); name != "" {
		return name
	}
	if a, ok := bd.atomOf(v); ok {
		return "ord_" + bd.eventNames[a.a] + "_" + bd.eventNames[a.b]
	}
	return ""
}

// name returns the table entry of v ("" when unnamed or an ordering atom).
func (bd *Builder) name(v sat.Var) string {
	if int(v) < len(bd.names) {
		return bd.names[v]
	}
	return ""
}

// setName records name as the name of v.
func (bd *Builder) setName(v sat.Var, name string) {
	for int(v) >= len(bd.names) {
		bd.names = append(bd.names, "")
	}
	bd.names[v] = name
	bd.named++
}

// atomOf finds the ordering atom whose variable is v. Atom variables are
// allocated in registration order, so atomList is sorted by variable.
func (bd *Builder) atomOf(v sat.Var) (registeredAtom, bool) {
	i := sort.Search(len(bd.atomList), func(i int) bool { return bd.atomList[i].v >= v })
	if i < len(bd.atomList) && bd.atomList[i].v == v {
		return bd.atomList[i], true
	}
	return registeredAtom{}, false
}

// Names returns the variable-indexed name table: Names()[v] is the name of
// variable v, "" for unnamed variables and ordering atoms. It may be shorter
// than NumVars. The slice is the builder's own; callers must not modify it,
// and it is valid until the next variable is named. internal/core
// classifies variables from exactly this table, mirroring the paper's
// "recognise interference variables by their names".
func (bd *Builder) Names() []string { return bd.names }

// NamedVars returns the name → SAT variable table derived from Names (the
// ordering atoms are not in it). When a name was given twice, the later
// variable wins.
func (bd *Builder) NamedVars() map[string]sat.Var {
	out := make(map[string]sat.Var, bd.named)
	for v, name := range bd.names {
		if name != "" {
			out[name] = sat.Var(v)
		}
	}
	return out
}

// NewEvent declares a memory-access event (an EOG node) and returns its id.
func (bd *Builder) NewEvent(name string) EventID {
	bd.eventNames = append(bd.eventNames, name)
	return EventID(len(bd.eventNames) - 1)
}

// NumEvents returns the number of declared events.
func (bd *Builder) NumEvents() int { return len(bd.eventNames) }

// FixedEdges returns the unconditional order edges added with OrderFixed.
func (bd *Builder) FixedEdges() [][2]EventID {
	out := make([][2]EventID, len(bd.fixedEdges))
	for i, e := range bd.fixedEdges {
		out[i] = [2]EventID{EventID(e[0]), EventID(e[1])}
	}
	return out
}

// OrderAtoms returns each interned ordering atom as (var, a, b) meaning the
// variable is true iff clk(a) < clk(b).
func (bd *Builder) OrderAtoms() []OrderAtom {
	out := make([]OrderAtom, len(bd.atomList))
	for i, a := range bd.atomList {
		out[i] = OrderAtom{Var: a.v, A: EventID(a.a), B: EventID(a.b)}
	}
	return out
}

// OrderAtom describes an interned ordering atom.
type OrderAtom struct {
	Var  sat.Var
	A, B EventID
}

// EventName returns the name of an event.
func (bd *Builder) EventName(e EventID) string { return bd.eventNames[e] }

// OrderFixed records the unconditional order a before b (program order,
// create/join edges).
func (bd *Builder) OrderFixed(a, b EventID) {
	bd.fixedEdges = append(bd.fixedEdges, [2]int32{int32(a), int32(b)})
}

// Before returns the ordering atom clk(a) < clk(b). Atoms are interned so
// Before(a,b) and Before(b,a) share one SAT variable with opposite polarity
// (timestamps are pairwise distinct).
func (bd *Builder) Before(a, b EventID) Bool {
	if a == b {
		panic("smt: Before on identical events")
	}
	x, y, neg := int32(a), int32(b), false
	if x > y {
		x, y, neg = y, x, true
	}
	v, ok := bd.atomVars[[2]int32{x, y}]
	if !ok {
		v = bd.solver.NewVar()
		bd.atomVars[[2]int32{x, y}] = v
		bd.atomList = append(bd.atomList, registeredAtom{v: v, a: x, b: y})
	}
	return Bool{sat.MkLit(v, neg)}
}

// Assert adds b as a top-level constraint.
func (bd *Builder) Assert(b Bool) {
	bd.asserted++
	bd.solver.AddClause(b.lit)
}

// AssertClause adds the disjunction of the given terms as one clause,
// avoiding intermediate OR gates.
func (bd *Builder) AssertClause(terms ...Bool) {
	bd.asserted++
	bd.clause = bd.clause[:0]
	for _, t := range terms {
		bd.clause = append(bd.clause, t.lit)
	}
	bd.solver.AddClause(bd.clause...)
}

// AssertEq asserts a = b over bit-vectors clause-by-clause (cheaper than
// Assert(BVEq(a,b)) because no gate tree is built).
func (bd *Builder) AssertEq(a, b BV) {
	bd.checkSameWidth(a, b)
	bd.asserted++
	for i := 0; i < a.Width(); i++ {
		bd.solver.AddClause(a.bits[i].lit.Neg(), b.bits[i].lit)
		bd.solver.AddClause(a.bits[i].lit, b.bits[i].lit.Neg())
	}
}

// Options configures a Solve call.
type Options struct {
	// Decider, when non-nil, is consulted before VSIDS for decisions; this is
	// where the interference-relation strategies plug in.
	Decider sat.Decider
	// Deadline aborts with StatusUnknown when the wall clock passes it.
	Deadline time.Time
	// Context, when non-nil, cancels the search cooperatively: the solver
	// polls ctx.Done() at a bounded interval and aborts with StatusUnknown
	// (Result.Stop = sat.StopCancelled) once the context is cancelled.
	Context context.Context
	// MaxConflicts aborts with StatusUnknown after this many conflicts (0 =
	// unlimited).
	MaxConflicts uint64
	// MaxDecisions aborts with StatusUnknown after this many decisions (0 =
	// unlimited; a deterministic per-call budget).
	MaxDecisions uint64
	// MaxMemoryBytes makes the solver return Unknown (Result.Stop =
	// sat.StopMemout) instead of growing its clause database and trail past
	// this approximate byte cap (0 = unlimited).
	MaxMemoryBytes int64
	// WrapTheory, when non-nil, wraps the ordering theory before it is
	// installed for this call. This is the fault-injection seam (see
	// internal/faultinject); production paths leave it nil.
	WrapTheory func(sat.Theory) sat.Theory
	// EagerOrderPropagation switches the ordering theory to eager
	// reachability propagation (ablation knob; off in the paper's setting).
	EagerOrderPropagation bool
	// Tracer, when non-nil, observes the search (see internal/telemetry for
	// the structured-trace implementation). Nil tracing is free.
	Tracer sat.Tracer
	// TimePhases splits solve time across BCP / theory / analyze / reduce
	// into Result.Timings (small constant overhead per propagation round).
	TimePhases bool
}

// Result reports the outcome of a Solve call.
type Result struct {
	Status  sat.Status
	Stats   sat.Stats
	Elapsed time.Duration
	// StatsDelta holds only this call's counter increments (Stats is
	// cumulative across incremental Solve calls on one builder).
	StatsDelta sat.Stats
	// Timings is the in-solve phase split (TimePhases mode; this call only).
	Timings sat.SearchTimings
	// OrderStats are the ordering theory's cumulative work counters.
	OrderStats order.Stats
	// Stop records why an Unknown status was returned (budget, deadline,
	// memout, cancellation); sat.StopNone after a verdict.
	Stop sat.StopReason
}

// ErrInconsistentPO is returned when the unconditional program order is
// cyclic, which indicates an encoder bug rather than an unsatisfiable VC.
var ErrInconsistentPO = errors.New("smt: fixed program order contains a cycle")

// syncTheory pushes into the ordering theory the events, fixed edges and
// ordering atoms declared since the last solve (on later solves, the
// incremental-unrolling seam). Fixed-implication units are re-derived
// after every growth step — a new fixed edge can decide an old atom — and
// only not-yet-installed units are added to the solver.
func (bd *Builder) syncTheory() error {
	th := bd.theory
	if bd.pushedEvents == len(bd.eventNames) &&
		bd.pushedFixed == len(bd.fixedEdges) &&
		bd.pushedAtoms == len(bd.atomList) {
		return nil
	}
	th.GrowTo(len(bd.eventNames))
	grewFixed := bd.pushedFixed != len(bd.fixedEdges)
	for _, e := range bd.fixedEdges[bd.pushedFixed:] {
		th.AddFixedEdge(e[0], e[1])
	}
	if !th.FixedAcyclic() {
		return ErrInconsistentPO
	}
	for _, a := range bd.atomList[bd.pushedAtoms:] {
		th.RegisterAtom(a.v, a.a, a.b)
	}
	// Atoms already decided by fixed program order become level-0 facts.
	for _, fi := range th.FixedImplications() {
		if bd.fixedUnits[fi.Lit.Var()] {
			continue
		}
		bd.fixedUnits[fi.Lit.Var()] = true
		bd.solver.AddClause(fi.Lit)
	}
	// The per-assert cycle check never revisits atoms already on the trail,
	// so a fixed edge added between solves can silently close a cycle with
	// a root-asserted atom. Detect that here: the grown formula is then
	// unsatisfiable at level 0 (only reachable when the fresh encoding at
	// this bound is itself unsat).
	if grewFixed && !th.Acyclic() {
		bd.rootUnsat = true
	}
	bd.pushedEvents = len(bd.eventNames)
	bd.pushedFixed = len(bd.fixedEdges)
	bd.pushedAtoms = len(bd.atomList)
	return nil
}

// Solve builds the ordering theory, installs hooks and runs the search.
// After a Sat result, model values can be read with Value/BVValue. The
// builder stays usable: further Solve/SolveAssuming calls reuse the solver
// state (learnt clauses, activities) incrementally.
func (bd *Builder) Solve(opts Options) (Result, error) {
	return bd.SolveAssuming(opts)
}

// SolveAssuming solves under temporary assumptions (e.g. the per-assertion
// selectors of encode's SelectableAsserts mode). An Unsat result holds only
// under the assumptions unless they are empty.
func (bd *Builder) SolveAssuming(opts Options, assumps ...Bool) (Result, error) {
	start := time.Now()
	if err := bd.syncTheory(); err != nil {
		return Result{}, err
	}
	if bd.rootUnsat {
		// A fixed edge added after a solve contradicted a root-asserted
		// ordering atom (see syncTheory): the formula is unsatisfiable at
		// level 0, with or without assumptions.
		return Result{
			Status:     sat.Unsat,
			Stats:      bd.solver.Stats(),
			Elapsed:    time.Since(start),
			OrderStats: bd.theory.Stats(),
		}, nil
	}
	bd.theory.SetEagerPropagation(opts.EagerOrderPropagation)
	var theory sat.Theory = bd.theory
	if opts.WrapTheory != nil {
		theory = opts.WrapTheory(theory)
	}
	bd.solver.Theory = theory
	bd.solver.Decider = opts.Decider
	bd.solver.Deadline = opts.Deadline
	if opts.Context != nil {
		bd.solver.Stop = opts.Context.Done()
	}
	bd.solver.MaxConflicts = opts.MaxConflicts
	bd.solver.MaxDecisions = opts.MaxDecisions
	bd.solver.MaxMemoryBytes = opts.MaxMemoryBytes
	bd.solver.Tracer = opts.Tracer
	var timings *sat.SearchTimings
	if opts.TimePhases {
		timings = &sat.SearchTimings{}
	}
	bd.solver.Timings = timings
	before := bd.solver.Stats()
	lits := make([]sat.Lit, len(assumps))
	for i, a := range assumps {
		lits[i] = a.lit
	}
	st := bd.solver.SolveWithAssumptions(lits...)
	bd.solver.Tracer = nil
	bd.solver.Timings = nil
	bd.solver.Stop = nil
	res := Result{
		Status:     st,
		Stats:      bd.solver.Stats(),
		Elapsed:    time.Since(start),
		OrderStats: bd.theory.Stats(),
		Stop:       bd.solver.LastStop(),
	}
	res.StatsDelta = res.Stats.Delta(before)
	if timings != nil {
		res.Timings = *timings
	}
	return res, nil
}

// Value returns the model value of a Boolean term (valid after Sat).
func (bd *Builder) Value(b Bool) bool {
	return bd.solver.ValueLit(b.lit) == sat.LTrue
}

// BVValue returns the model value of a bit-vector term (valid after Sat).
func (bd *Builder) BVValue(v BV) uint64 {
	var out uint64
	for i, b := range v.bits {
		if bd.Value(b) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// BVByName returns a named bit-vector variable, if declared.
func (bd *Builder) BVByName(name string) (BV, bool) {
	v, ok := bd.bvByName[name]
	return v, ok
}

// BoolByName returns a named Boolean variable, if declared.
// When a name was given twice, the later variable is returned, as in
// NamedVars.
func (bd *Builder) BoolByName(name string) (Bool, bool) {
	if name == "" {
		return Bool{}, false
	}
	for v := len(bd.names) - 1; v >= 0; v-- {
		if bd.names[v] == name {
			return Bool{sat.PosLit(sat.Var(v))}, true
		}
	}
	return Bool{}, false
}
