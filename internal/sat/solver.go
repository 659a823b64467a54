package sat

import (
	"slices"
	"time"
)

// ReducePolicy selects the learnt-clause database reduction policy.
type ReducePolicy int

// Reduction policies.
const (
	// ReduceTiered is the default LBD-tiered policy: glue clauses
	// (LBD <= 2) are kept forever, mid-tier clauses (LBD <= 6) survive as
	// long as they keep participating in conflicts and are demoted to the
	// local tier when they stop, and local clauses compete by activity.
	ReduceTiered ReducePolicy = iota
	// ReduceLegacyActivity is the pre-arena policy: order by (glue,
	// activity) and drop the worst half. Kept flag-gated so the DIMACS
	// differential tests can compare the two paths verdict for verdict.
	ReduceLegacyActivity
)

// InprocessMode selects the between-restart inprocessing pipeline.
type InprocessMode int

// Inprocessing modes.
const (
	// InprocessOn (the default) runs top-level simplification, clause
	// subsumption and self-subsuming resolution at solve entry and between
	// restarts. All transformations are equivalence-preserving, so the
	// solver stays sound for incremental use and assumption cores.
	InprocessOn InprocessMode = iota
	// InprocessOff disables inprocessing entirely.
	InprocessOff
	// InprocessBVE additionally runs bounded variable elimination. BVE is
	// only equisatisfiable (eliminated variables are re-derived into the
	// model by reconstruction), and clauses or assumptions over eliminated
	// variables must not be introduced later: it is meant for one-shot
	// solving (cmd/satsolve), not for the incremental DPLL(T) pipeline.
	InprocessBVE
)

// Solver is a CDCL SAT solver with DPLL(T) hooks.
//
// Typical use:
//
//	s := sat.New()
//	a, b := s.NewVar(), s.NewVar()
//	s.AddClause(sat.PosLit(a), sat.NegLit(b))
//	if s.Solve() == sat.Sat { _ = s.Value(a) }
//
// The zero budget fields mean "no limit". Theory and Decider, when non-nil,
// plug a theory solver and a custom decision strategy into the search.
type Solver struct {
	// Theory, when set, participates in the search (DPLL(T)).
	Theory Theory
	// Decider, when set, is consulted for decision literals before VSIDS.
	Decider Decider
	// MaxConflicts aborts the search (Unknown) after this many conflicts.
	MaxConflicts uint64
	// MaxDecisions aborts the search (Unknown) after this many decisions in
	// one Solve call (deterministic per-task budget).
	MaxDecisions uint64
	// MaxMemoryBytes aborts the search (Unknown, LastStop = StopMemout) when
	// the solver's approximate live allocation — clause arena, per-variable
	// bookkeeping, trail — exceeds this cap, instead of OOMing the process.
	MaxMemoryBytes int64
	// Deadline aborts the search (Unknown) when the wall clock passes it.
	Deadline time.Time
	// Stop, when non-nil, cancels the search cooperatively: the search loop
	// polls the channel at a bounded interval and aborts with Unknown
	// (LastStop = StopCancelled) once it is closed. Derive it from a
	// context.Context's Done() to plumb standard cancellation through.
	Stop <-chan struct{}
	// Proof, when set, records the inference trace (set it before adding
	// clauses; see ProofRecorder).
	Proof ProofRecorder
	// Tracer, when set, observes the search (decisions, propagations,
	// conflicts, restarts, reductions, inprocessing). Nil costs one branch
	// per event.
	Tracer Tracer
	// Timings, when set, accumulates per-phase solve time (BCP vs theory
	// vs analyze vs reduce). Nil skips all clock reads.
	Timings *SearchTimings
	// Reduce selects the learnt-database reduction policy (default tiered).
	Reduce ReducePolicy
	// Inprocessing selects the inprocessing pipeline (default on; see
	// InprocessMode for the BVE caveats).
	Inprocessing InprocessMode
	// ChronoThreshold enables chronological backtracking: when a conflict's
	// computed backjump would undo more than this many decision levels, the
	// solver backtracks just one level instead and lets propagation repair
	// the trail (Nadel & Ryvchin's restricted scheme). New sets 100;
	// negative disables it.
	ChronoThreshold int

	ca      arena
	clauses []ClauseRef
	learnts []ClauseRef
	watches [][]watcher
	// watchSlab is the unused tail of the block that empty watch lists
	// take their first capacity from (see watch).
	watchSlab []watcher

	assigns  []LBool
	polarity []bool // saved phase: true = prefer the negative literal
	reason   []ClauseRef
	level    []int32
	occs     []int32 // per-variable clause-occurrence count (monotone)
	elim     []bool  // true once BVE removed the variable

	trail    []Lit
	trailLim []int
	qhead    int

	thHead int     // trail prefix already asserted to the theory
	thCum  []int32 // thCum[i] = theory.AssertedCount after asserting trail[i]

	activity []float64
	order    *varHeap
	varInc   float64
	varDecay float64
	claInc   float64
	claDecay float64

	seen       []byte
	minimizeCl []Lit       // scratch for clause minimisation
	minStack   []Lit       // scratch for deep (recursive) minimisation
	minClear   []Var       // vars whose seen flags deep minimisation must clear
	lbdSeen    []uint32    // level -> generation stamp for LBD computation
	lbdGen     uint32      // current LBD generation
	localRefs  []ClauseRef // reduceDB scratch

	maxLearnts   float64
	learntAdjust int

	ok    bool
	stats Stats

	stopped       StopReason // why the last Solve returned Unknown
	decisionLimit uint64     // stats.Decisions value at which MaxDecisions trips

	// Inprocessing scheduling state: problem clauses added since the last
	// round, and the conflict count at the last between-restart round.
	dirtyClauses  int
	lastInprocess uint64
	// proofUnits counts the level-0 trail literals already emitted to the
	// proof as unit clauses (inprocessing emits them before deleting their
	// antecedents, keeping later strengthenings RUP-checkable).
	proofUnits int

	elimStack []elimRecord // BVE reconstruction stack (reverse order)

	assumptions []Lit
	conflCore   []Lit
	model       []LBool

	tempConfl    []Lit // reusable container for theory conflict clauses
	addScratch   []Lit // AddClause's simplified copy, empty between calls
	proofScratch []Lit // AddClause's input as handed to Proof
}

// theoryConflRef is the sentinel conflict "clause" for theory conflicts,
// whose literals live in Solver.tempConfl rather than the arena.
const theoryConflRef ClauseRef = NullRef - 1

// elimRecord remembers the clauses removed when a variable was eliminated,
// so satisfying models can be extended over the eliminated variable.
type elimRecord struct {
	v       Var
	clauses [][]Lit
}

// New returns an empty solver with the default configuration: tiered
// clause-database reduction, inprocessing on, chronological backtracking
// for backjumps longer than 100 levels.
func New() *Solver {
	s := &Solver{
		varInc:          1.0,
		varDecay:        0.95,
		claInc:          1.0,
		claDecay:        0.999,
		ok:              true,
		ChronoThreshold: 100,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// minVarCap is the per-variable arrays' first capacity (see growVars).
const minVarCap = 64

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	if len(s.assigns) == cap(s.assigns) {
		s.growVars(max(minVarCap, 2*cap(s.assigns)))
	}
	s.assigns = append(s.assigns, LUndef)
	s.polarity = append(s.polarity, true)
	s.reason = append(s.reason, NullRef)
	s.level = append(s.level, 0)
	s.occs = append(s.occs, 0)
	s.elim = append(s.elim, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.lbdSeen = append(s.lbdSeen, 0)
	s.watches = append(s.watches, nil, nil)
	s.order.growTo(int(v) + 1)
	s.order.push(v)
	return v
}

// growVars grows every per-variable array to capacity n at once, so the
// dozen appends of NewVar reallocate together, doubling from minVarCap,
// rather than each from empty.
func (s *Solver) growVars(n int) {
	grow := n - len(s.assigns)
	s.assigns = slices.Grow(s.assigns, grow)
	s.polarity = slices.Grow(s.polarity, grow)
	s.reason = slices.Grow(s.reason, grow)
	s.level = slices.Grow(s.level, grow)
	s.occs = slices.Grow(s.occs, grow)
	s.elim = slices.Grow(s.elim, grow)
	s.activity = slices.Grow(s.activity, grow)
	s.seen = slices.Grow(s.seen, grow)
	s.lbdSeen = slices.Grow(s.lbdSeen, grow)
	s.watches = slices.Grow(s.watches, 2*n-len(s.watches))
	s.order.indices = slices.Grow(s.order.indices, n-len(s.order.indices))
	s.order.heap = slices.Grow(s.order.heap, n-len(s.order.heap))
}

// SetPhase sets the initial saved phase for a variable: the polarity its
// first decision will try. Phase saving overwrites it as search proceeds.
// Encoders use this to seed circuit-aware phases (a Tseitin gate decided
// true propagates its inputs; decided false it propagates nothing).
func (s *Solver) SetPhase(v Var, neg bool) { s.polarity[v] = neg }

// NVars returns the number of variables created so far.
func (s *Solver) NVars() int { return len(s.assigns) }

// NClauses returns the number of problem clauses currently held (top-level
// simplification and subsumption may shrink it across Solve calls).
func (s *Solver) NClauses() int { return len(s.clauses) }

// ProblemClauses returns copies of the problem clauses (for serialisation).
func (s *Solver) ProblemClauses() [][]Lit {
	out := make([][]Lit, 0, len(s.clauses))
	for _, r := range s.clauses {
		if s.ca.deleted(r) {
			continue
		}
		out = append(out, append([]Lit(nil), s.ca.lits(r)...))
	}
	return out
}

// LevelZeroLits returns the literals fixed by top-level unit clauses.
func (s *Solver) LevelZeroLits() []Lit {
	if s.decisionLevel() != 0 {
		panic("sat: LevelZeroLits during search")
	}
	return append([]Lit(nil), s.trail...)
}

// Value returns the assignment of v: from the last Sat model if one exists,
// else from the current (partial) assignment. The solver backtracks to the
// root level after every Solve call, so it stays incrementally usable —
// clauses may be added and Solve called again — while models remain
// readable.
func (s *Solver) Value(v Var) LBool {
	if int(v) < len(s.model) {
		return s.model[v]
	}
	return s.assigns[v]
}

// ValueLit returns the value of literal l (see Value).
func (s *Solver) ValueLit(l Lit) LBool {
	val := s.Value(l.Var())
	if val == LUndef {
		return LUndef
	}
	if l.IsNeg() {
		return val.Neg()
	}
	return val
}

// valueLitInternal reads the live assignment (ignores saved models); all
// search-internal code uses this.
func (s *Solver) valueLitInternal(l Lit) LBool {
	val := s.assigns[l.Var()]
	if val == LUndef {
		return LUndef
	}
	if l.IsNeg() {
		return val.Neg()
	}
	return val
}

// Stats returns the cumulative search counters.
func (s *Solver) Stats() Stats { return s.stats }

// LastStop reports why the most recent Solve call stopped: StopNone after a
// verdict, otherwise the budget/deadline/memout/cancellation that aborted it.
func (s *Solver) LastStop() StopReason { return s.stopped }

// MemApprox returns the solver's approximate live allocation in bytes: the
// clause arena, the per-variable bookkeeping arrays and the trail. It
// deliberately over-counts a little rather than chasing exact allocator
// numbers; MaxMemoryBytes compares against this figure.
func (s *Solver) MemApprox() int64 {
	return int64(len(s.ca.data))*4 + int64(len(s.assigns))*128 + int64(cap(s.trail))*8
}

// Okay reports whether the clause set is still possibly satisfiable (false
// once a top-level conflict has been derived).
func (s *Solver) Okay() bool { return s.ok }

// SetPolarity sets the preferred first assignment for v (neg=true means the
// solver will try the negative literal first).
func (s *Solver) SetPolarity(v Var, neg bool) { s.polarity[v] = neg }

// BumpActivity increases v's VSIDS score, biasing the default order.
func (s *Solver) BumpActivity(v Var) { s.varBump(v) }

// AddClause adds a clause over the given literals, simplifying against the
// top-level assignment. It returns false if the clause set became trivially
// unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.Proof != nil {
		// Hand the recorder a copy in solver scratch, so lits itself never
		// escapes and callers' variadic clauses stay on their stacks.
		s.proofScratch = append(s.proofScratch[:0], lits...)
		s.Proof.Input(s.proofScratch)
	}
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Sort-free simplification into the reused scratch: drop duplicates and
	// false literals; detect tautologies and satisfied clauses. The scratch
	// is handed back emptied on every path, so the next call starts clean.
	out, satisfied := s.simplifyInput(s.addScratch[:0], lits)
	s.addScratch = out[:0]
	if satisfied {
		return true
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], NullRef)
		if s.propagateBool() != NullRef {
			s.ok = false
			return false
		}
		return true
	}
	r := s.ca.alloc(out, false)
	s.clauses = append(s.clauses, r)
	s.countOccs(out)
	s.dirtyClauses++
	s.attach(r)
	return true
}

// simplifyInput appends to out the literals of lits that are not false at
// the top level, without duplicates. satisfied is true when some literal is
// already true or the clause is a tautology; out is then incomplete.
func (s *Solver) simplifyInput(out, lits []Lit) (_ []Lit, satisfied bool) {
	for _, l := range lits {
		if s.elim[l.Var()] {
			panic("sat: AddClause over a BVE-eliminated variable")
		}
		switch s.valueLitInternal(l) {
		case LTrue:
			return out, true
		case LFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return out, true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, false
}

// countOccs bumps the occurrence counters of the clause's variables. The
// counters are monotone (never decremented on deletion): over-counting only
// costs a skipped decision elision, never soundness.
func (s *Solver) countOccs(lits []Lit) {
	for _, l := range lits {
		s.occs[l.Var()]++
	}
}

func (s *Solver) attach(r ClauseRef) {
	lits := s.ca.lits(r)
	s.watch(lits[0].Neg(), watcher{r, lits[1]})
	s.watch(lits[1].Neg(), watcher{r, lits[0]})
}

// Watch-list slab sizing: a literal's first watch list is a
// watchSlabInit-capacity window of a shared watchSlabChunk-watcher block,
// so attaching a clause does not allocate until a list outgrows it.
const (
	watchSlabInit  = 4
	watchSlabChunk = 1024
)

// watch appends w to p's watch list. An empty list takes its first capacity
// from the shared slab as a 3-index slice: an append past that capacity
// reallocates the list rather than spilling into a neighbour's window.
func (s *Solver) watch(p Lit, w watcher) {
	ws := s.watches[p]
	if cap(ws) == 0 {
		if len(s.watchSlab) < watchSlabInit {
			s.watchSlab = make([]watcher, watchSlabChunk)
		}
		ws = s.watchSlab[:0:watchSlabInit]
		s.watchSlab = s.watchSlab[watchSlabInit:]
	}
	s.watches[p] = append(ws, w)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) uncheckedEnqueue(l Lit, from ClauseRef) {
	v := l.Var()
	if l.IsNeg() {
		s.assigns[v] = LFalse
	} else {
		s.assigns[v] = LTrue
	}
	s.reason[v] = from
	s.level[v] = int32(s.decisionLevel())
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.trail[i].IsNeg()
		s.assigns[v] = LUndef
		s.reason[v] = NullRef
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = bound
	if s.thHead > bound {
		if s.Theory != nil {
			n := 0
			if bound > 0 {
				n = int(s.thCum[bound-1])
			}
			s.Theory.PopToCount(n)
			s.thCum = s.thCum[:bound]
		}
		s.thHead = bound
	}
	if s.Decider != nil {
		s.Decider.OnBacktrack()
	}
}

// propagateBool runs unit propagation to fixpoint; it returns a conflicting
// clause ref or NullRef.
func (s *Solver) propagateBool() ClauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		i, j := 0, 0
	clauseLoop:
		for i < len(ws) {
			w := ws[i]
			if s.valueLitInternal(w.blocker) == LTrue {
				s.stats.BlockerHits++
				ws[j] = ws[i]
				i++
				j++
				continue
			}
			r := w.ref
			if s.ca.deleted(r) {
				i++ // drop the watcher
				continue
			}
			lits := s.ca.lits(r)
			falseLit := p.Neg()
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			nw := watcher{r, first}
			if first != w.blocker && s.valueLitInternal(first) == LTrue {
				ws[j] = nw
				i++
				j++
				continue
			}
			for k := 2; k < len(lits); k++ {
				if s.valueLitInternal(lits[k]) != LFalse {
					lits[1], lits[k] = lits[k], lits[1]
					neg := lits[1].Neg()
					s.watches[neg] = append(s.watches[neg], nw)
					i++
					continue clauseLoop
				}
			}
			// Clause is unit or conflicting.
			ws[j] = nw
			i++
			j++
			if s.valueLitInternal(first) == LFalse {
				for i < len(ws) {
					ws[j] = ws[i]
					i++
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return r
			}
			s.stats.Propagations++
			if s.Tracer != nil {
				s.Tracer.Propagation(first)
			}
			s.uncheckedEnqueue(first, r)
		}
		s.watches[p] = ws[:j]
	}
	return NullRef
}

// theoryConflict stores the theory's conflict clause in the reusable
// scratch and returns the sentinel conflict ref.
func (s *Solver) theoryConflict(confl []Lit) ClauseRef {
	s.tempConfl = append(s.tempConfl[:0], confl...)
	return theoryConflRef
}

// conflictLits returns the literals of a conflict returned by the
// propagation pipeline (arena clause or theory scratch).
func (s *Solver) conflictLits(r ClauseRef) []Lit {
	if r == theoryConflRef {
		return s.tempConfl
	}
	return s.ca.lits(r)
}

// theoryStep asserts pending trail literals to the theory and applies theory
// propagations. It returns a conflict ref (or NullRef) and whether any new
// literal was enqueued (so Boolean propagation must re-run).
func (s *Solver) theoryStep() (ClauseRef, bool) {
	if s.Theory == nil {
		s.thHead = len(s.trail)
		return NullRef, false
	}
	for s.thHead < len(s.trail) {
		p := s.trail[s.thHead]
		if s.Theory.Relevant(p.Var()) {
			if confl := s.Theory.Assert(p); confl != nil {
				s.stats.TheoryConfl++
				if s.Tracer != nil {
					s.Tracer.TheoryConflict(len(confl))
				}
				if s.Proof != nil {
					s.Proof.TheoryLemma(confl)
				}
				return s.theoryConflict(confl), false
			}
		}
		s.thCum = append(s.thCum, int32(s.Theory.AssertedCount()))
		s.thHead++
	}
	progressed := false
	for _, imp := range s.Theory.Propagate() {
		switch s.valueLitInternal(imp.Lit) {
		case LTrue:
			continue
		case LFalse:
			// The explanation clause is fully falsified: a theory conflict.
			s.stats.TheoryConfl++
			if s.Tracer != nil {
				s.Tracer.TheoryConflict(len(imp.Reason))
			}
			if s.Proof != nil {
				s.Proof.TheoryLemma(imp.Reason)
			}
			return s.theoryConflict(imp.Reason), false
		}
		if len(imp.Reason) < 2 || imp.Reason[0] != imp.Lit {
			// Theories must explain with (lit ∨ ¬cause1 ∨ ...); anything else
			// is a contract violation we refuse rather than mis-handle.
			panic("sat: malformed theory implication reason")
		}
		if s.Proof != nil {
			s.Proof.TheoryLemma(imp.Reason)
		}
		r := s.ca.alloc(imp.Reason, true)
		s.ca.setLBDTier(r, int32(len(imp.Reason)), tierLocal)
		// Mid-search clause attachment: the second watch must be the false
		// literal with the highest decision level, so the watch invariants
		// survive backtracking.
		lits := s.ca.lits(r)
		maxI := 1
		for k := 2; k < len(lits); k++ {
			if s.level[lits[k].Var()] > s.level[lits[maxI].Var()] {
				maxI = k
			}
		}
		lits[1], lits[maxI] = lits[maxI], lits[1]
		s.learnts = append(s.learnts, r)
		s.countOccs(lits)
		s.attach(r)
		s.stats.LearntClauses++
		s.claBump(r)
		s.stats.TheoryProps++
		if s.Tracer != nil {
			s.Tracer.TheoryPropagation(imp.Lit)
		}
		s.uncheckedEnqueue(imp.Lit, r)
		progressed = true
	}
	return NullRef, progressed
}

// propagateAll interleaves Boolean and theory propagation to fixpoint.
func (s *Solver) propagateAll() ClauseRef {
	for {
		if confl := s.timedPropagateBool(); confl != NullRef {
			return confl
		}
		confl, progressed := s.timedTheoryStep()
		if confl != NullRef {
			return confl
		}
		if !progressed {
			return NullRef
		}
	}
}

// timedPropagateBool is propagateBool with optional phase timing.
func (s *Solver) timedPropagateBool() ClauseRef {
	if s.Timings == nil {
		return s.propagateBool()
	}
	t0 := time.Now()
	confl := s.propagateBool()
	s.Timings.BCP += time.Since(t0)
	return confl
}

// timedTheoryStep is theoryStep with optional phase timing.
func (s *Solver) timedTheoryStep() (ClauseRef, bool) {
	if s.Timings == nil {
		return s.theoryStep()
	}
	t0 := time.Now()
	confl, progressed := s.theoryStep()
	s.Timings.Theory += time.Since(t0)
	return confl, progressed
}

// timedAnalyze is analyze with optional phase timing.
func (s *Solver) timedAnalyze(confl ClauseRef) ([]Lit, int) {
	if s.Timings == nil {
		return s.analyze(confl)
	}
	t0 := time.Now()
	learnt, bt := s.analyze(confl)
	s.Timings.Analyze += time.Since(t0)
	return learnt, bt
}

func (s *Solver) varBump(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

func (s *Solver) varDecayActivity() { s.varInc /= s.varDecay }

// claBump bumps a learnt clause's activity and marks it used, so the tiered
// reduction policy sees it participating in conflicts. When conflict
// analysis finds the clause's literals now span fewer decision levels, the
// LBD is updated downwards and the clause promoted (glue protection).
func (s *Solver) claBump(r ClauseRef) {
	act := s.ca.activity(r) + float32(s.claInc)
	if act > 1e20 {
		for _, lr := range s.learnts {
			s.ca.setActivity(lr, s.ca.activity(lr)*1e-20)
		}
		s.claInc *= 1e-20
		act = s.ca.activity(r) + float32(s.claInc)
	}
	s.ca.setActivity(r, act)
	s.ca.setUsed(r, true)
}

func (s *Solver) claDecayActivity() { s.claInc /= s.claDecay }

// updateLBD recomputes a learnt clause's LBD during conflict analysis and
// promotes it when the new value is better (never demotes here; demotion is
// reduceDB's job).
func (s *Solver) updateLBD(r ClauseRef) {
	nl := s.computeLBD(s.ca.lits(r))
	if nl >= s.ca.lbd(r) {
		return
	}
	tier := s.ca.tier(r)
	switch {
	case nl <= coreLBD:
		tier = tierCore
	case nl <= midLBD && tier == tierLocal:
		tier = tierMid
	}
	s.ca.setLBDTier(r, nl, tier)
}

// LBD tier boundaries (see ReduceTiered).
const (
	coreLBD = 2
	midLBD  = 6
)

// pickBranchLit selects the next decision literal using VSIDS + saved
// phase. Variables that occur in no clause and are invisible to the theory
// are elided: any value satisfies them, so they are completed into the
// model at Sat time instead of costing a decision each.
func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.pop()
		if s.assigns[v] != LUndef || s.elim[v] {
			continue
		}
		if s.occs[v] == 0 && (s.Theory == nil || !s.Theory.Relevant(v)) {
			continue
		}
		return MkLit(v, s.polarity[v])
	}
	return LitUndef
}

// maxLitsLevel returns the highest decision level among the literals (used
// to pre-backtrack before analysing lagging theory conflicts).
func (s *Solver) maxLitsLevel(lits []Lit) int {
	m := 0
	for _, l := range lits {
		if lv := int(s.level[l.Var()]); lv > m {
			m = lv
		}
	}
	return m
}

// Solve runs the CDCL search and returns Sat, Unsat or Unknown (budget
// exhausted). After Sat the model is saved (read it via Value) and the
// solver backtracks to the root level, so it remains incrementally usable:
// more clauses may be added and Solve called again, reusing learnt clauses
// and activities.
func (s *Solver) Solve() Status { return s.SolveWithAssumptions() }

// SolveWithAssumptions solves under the given assumption literals: the
// formula is checked together with the temporary facts assumps. On Unsat,
// ConflictCore reports a subset of the assumptions that is already
// inconsistent with the formula (empty core = unsat without assumptions).
func (s *Solver) SolveWithAssumptions(assumps ...Lit) Status {
	if !s.ok {
		if s.Proof != nil {
			s.Proof.Learnt(nil)
		}
		s.conflCore = nil
		return Unsat
	}
	s.assumptions = append(s.assumptions[:0], assumps...)
	for _, a := range s.assumptions {
		if s.elim[a.Var()] {
			panic("sat: assumption over a BVE-eliminated variable")
		}
	}
	s.conflCore = nil
	s.model = nil
	s.stopped = StopNone
	s.decisionLimit = 0
	if s.MaxDecisions > 0 {
		s.decisionLimit = s.stats.Decisions + s.MaxDecisions
	}
	// Entry inprocessing: the clause database changed since the last round
	// (fresh load or incremental additions), so simplify before searching.
	if s.Inprocessing != InprocessOff && s.dirtyClauses > 0 {
		if !s.inprocess() {
			if s.Proof != nil {
				s.Proof.Learnt(nil)
			}
			return Unsat
		}
	}
	s.maybeCompact()
	confBudget := s.MaxConflicts
	restart := 0
	for {
		limit := luby(restart) * 100
		st := s.search(limit, &confBudget)
		if st != Unknown {
			if st == Sat {
				s.saveModel()
			}
			s.cancelUntil(0)
			return st
		}
		if s.checkStop(confBudget) {
			s.cancelUntil(0)
			return Unknown
		}
		restart++
		s.stats.Restarts++
		if s.Tracer != nil {
			s.Tracer.Restart(s.stats.Restarts)
		}
		// Between-restart inprocessing, amortised over the conflicts since
		// the last round; search returned at level 0.
		if s.Inprocessing != InprocessOff &&
			s.stats.Conflicts-s.lastInprocess >= inprocessConflictGap {
			if !s.inprocess() {
				if s.Proof != nil {
					s.Proof.Learnt(nil)
				}
				return Unsat
			}
		}
		s.maybeCompact()
	}
}

// inprocessConflictGap is the number of conflicts between inprocessing
// rounds during one search (entry rounds run whenever clauses were added).
const inprocessConflictGap = 4000

// saveModel snapshots the current total assignment, completing elided
// variables (no clause occurrences, invisible to the theory) with their
// saved phase — the same value a decision on them would have produced — and
// re-deriving BVE-eliminated variables from the reconstruction stack.
func (s *Solver) saveModel() {
	s.model = append([]LBool(nil), s.assigns...)
	for v := range s.model {
		if s.model[v] == LUndef && !s.elim[v] {
			if s.polarity[v] {
				s.model[v] = LFalse
			} else {
				s.model[v] = LTrue
			}
		}
	}
	for i := len(s.elimStack) - 1; i >= 0; i-- {
		rec := s.elimStack[i]
		if s.polarity[rec.v] {
			s.model[rec.v] = LFalse
		} else {
			s.model[rec.v] = LTrue
		}
		for _, c := range rec.clauses {
			satisfied := false
			var own Lit = LitUndef
			for _, l := range c {
				if l.Var() == rec.v {
					own = l
					continue
				}
				if s.modelLit(l) == LTrue {
					satisfied = true
					break
				}
			}
			if !satisfied && own != LitUndef {
				if own.IsNeg() {
					s.model[rec.v] = LFalse
				} else {
					s.model[rec.v] = LTrue
				}
			}
		}
	}
}

func (s *Solver) modelLit(l Lit) LBool {
	val := s.model[l.Var()]
	if val == LUndef {
		return LUndef
	}
	if l.IsNeg() {
		return val.Neg()
	}
	return val
}

// ConflictCore returns, after an Unsat result from SolveWithAssumptions, a
// subset of the assumptions whose conjunction the formula refutes. An empty
// core means the formula is unsatisfiable regardless of assumptions.
func (s *Solver) ConflictCore() []Lit {
	return append([]Lit(nil), s.conflCore...)
}

// analyzeFinal computes the subset of assumption literals implying the
// falsification of the assumption p (which currently evaluates to false):
// it walks the implication cone of ¬p back to the assumption decisions. It
// is only called while every decision level below the current one is an
// assumption level.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	out := []Lit{p}
	if s.decisionLevel() == 0 {
		return out
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == NullRef {
			// A decision below the VSIDS region is an assumption.
			if s.level[v] > 0 {
				out = append(out, s.trail[i])
			}
		} else {
			lits := s.ca.lits(s.reason[v])
			for j := 1; j < len(lits); j++ {
				if s.level[lits[j].Var()] > 0 {
					s.seen[lits[j].Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
	return out
}

// checkStop tests every abort condition, recording the first that holds in
// s.stopped: conflict/decision budgets, the wall-clock deadline, cooperative
// cancellation and the memory cap. It is called per conflict and at the
// search loop's bounded poll interval — every check is a few comparisons, a
// clock read and a non-blocking channel poll.
func (s *Solver) checkStop(confBudget uint64) bool {
	if s.stopped != StopNone {
		return true
	}
	if s.MaxConflicts > 0 && confBudget == 0 {
		s.stopped = StopConflicts
		return true
	}
	if s.MaxDecisions > 0 && s.stats.Decisions >= s.decisionLimit {
		s.stopped = StopDecisions
		return true
	}
	if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
		s.stopped = StopDeadline
		return true
	}
	if s.Stop != nil {
		select {
		case <-s.Stop:
			s.stopped = StopCancelled
			return true
		default:
		}
	}
	if s.MaxMemoryBytes > 0 && s.MemApprox() > s.MaxMemoryBytes {
		s.stopped = StopMemout
		return true
	}
	return false
}

// handleConflict runs conflict analysis on confl and applies its result:
// learn, backtrack (chronologically when the jump is long), enqueue the
// asserting literal, decay activities. It returns Unsat for a top-level
// conflict and Unknown to continue the search.
func (s *Solver) handleConflict(confl ClauseRef, theory bool) Status {
	// A theory conflict can live entirely below the current level.
	if ml := s.maxLitsLevel(s.conflictLits(confl)); ml < s.decisionLevel() {
		s.cancelUntil(ml)
	}
	conflLevel := s.decisionLevel()
	if conflLevel == 0 {
		s.ok = false
		if s.Proof != nil {
			s.Proof.Learnt(nil)
		}
		if s.Tracer != nil {
			s.Tracer.Conflict(ConflictInfo{Backjump: -1, Theory: theory})
		}
		return Unsat
	}
	learnt, bt := s.timedAnalyze(confl)
	if s.Proof != nil {
		s.Proof.Learnt(learnt)
	}
	// Restricted chronological backtracking: when the backjump would undo a
	// long stretch of the trail, step back a single level instead; the
	// learnt clause is unit there too, so the asserting literal still
	// propagates, and the skipped assignments survive to be reused.
	if s.ChronoThreshold >= 0 && conflLevel-bt > s.ChronoThreshold && conflLevel-1 > bt {
		bt = conflLevel - 1
		s.stats.ChronoBTs++
	}
	s.cancelUntil(bt)
	if len(learnt) == 1 {
		if s.Tracer != nil {
			s.Tracer.Conflict(ConflictInfo{
				LearntSize: 1, LBD: 1, Level: conflLevel, Backjump: bt, Theory: theory,
			})
		}
		s.uncheckedEnqueue(learnt[0], NullRef)
	} else {
		lbd := s.computeLBD(learnt)
		r := s.ca.alloc(learnt, true)
		tier := tierLocal
		switch {
		case lbd <= coreLBD:
			tier = tierCore
		case lbd <= midLBD:
			tier = tierMid
		}
		s.ca.setLBDTier(r, lbd, tier)
		s.learnts = append(s.learnts, r)
		s.countOccs(learnt)
		s.attach(r)
		s.claBump(r)
		s.stats.LearntClauses++
		if s.Tracer != nil {
			s.Tracer.Conflict(ConflictInfo{
				LearntSize: len(learnt), LBD: lbd, Level: conflLevel, Backjump: bt, Theory: theory,
			})
		}
		s.uncheckedEnqueue(learnt[0], r)
	}
	s.varDecayActivity()
	s.claDecayActivity()
	s.learntAdjust--
	if s.learntAdjust <= 0 {
		s.learntAdjust = 1000
		s.maxLearnts = s.maxLearnts*1.1 + 2000
	}
	return Unknown
}

// search runs up to maxConfl conflicts; Unknown means "restart or give up".
func (s *Solver) search(maxConfl int, confBudget *uint64) Status {
	var conflicts int
	var steps uint32
	for {
		// Stop poll at a bounded loop interval: every iteration is a conflict
		// or a decision, so long conflict-free (restart-starved) runs still
		// honor the wall clock, cancellation channel and memory cap without a
		// per-iteration syscall.
		steps++
		if steps&1023 == 0 && s.checkStop(*confBudget) {
			s.cancelUntil(0)
			return Unknown
		}
		confl := s.propagateAll()
		if confl != NullRef {
			theoryConfl := confl == theoryConflRef
			s.stats.Conflicts++
			conflicts++
			if s.MaxConflicts > 0 && *confBudget > 0 {
				*confBudget--
			}
			if st := s.handleConflict(confl, theoryConfl); st != Unknown {
				return st
			}
			if conflicts >= maxConfl || s.checkStop(*confBudget) {
				s.cancelUntil(0)
				return Unknown
			}
		} else {
			if float64(len(s.learnts)) > s.maxLearnts+float64(len(s.trail)) {
				s.timedReduceDB()
			}
			// Enqueue pending assumptions first, one decision level each.
			next := LitUndef
			src := SourceAssumption
			for s.decisionLevel() < len(s.assumptions) {
				p := s.assumptions[s.decisionLevel()]
				switch s.valueLitInternal(p) {
				case LTrue:
					s.newDecisionLevel() // dummy level: already satisfied
				case LFalse:
					s.conflCore = s.analyzeFinal(p)
					return Unsat
				default:
					next = p
				}
				if next != LitUndef {
					break
				}
			}
			if next == LitUndef && s.Decider != nil {
				next = s.Decider.Next(func(v Var) LBool { return s.assigns[v] })
				src = SourceDecider
			}
			if next == LitUndef {
				next = s.pickBranchLit()
				src = SourceVSIDS
			}
			if next == LitUndef {
				if s.Theory != nil {
					if confl := s.Theory.FinalCheck(); confl != nil {
						s.stats.TheoryConfl++
						if s.Tracer != nil {
							s.Tracer.TheoryConflict(len(confl))
						}
						if s.Proof != nil {
							s.Proof.TheoryLemma(confl)
						}
						s.stats.Conflicts++
						conflicts++
						if s.MaxConflicts > 0 && *confBudget > 0 {
							*confBudget--
						}
						if st := s.handleConflict(s.theoryConflict(confl), true); st != Unknown {
							return st
						}
						continue
					}
				}
				return Sat
			}
			if s.assigns[next.Var()] != LUndef {
				panic("sat: decision on assigned variable")
			}
			// Deterministic decision budget: checked at the decision site so a
			// MaxDecisions cap is exact, not rounded to the poll interval.
			if s.MaxDecisions > 0 && s.stats.Decisions >= s.decisionLimit {
				s.stopped = StopDecisions
				s.cancelUntil(0)
				return Unknown
			}
			s.stats.Decisions++
			s.newDecisionLevel()
			if s.Tracer != nil {
				s.Tracer.Decision(next, s.decisionLevel(), src)
			}
			s.uncheckedEnqueue(next, NullRef)
		}
	}
}

// computeLBD counts the distinct decision levels among the literals using a
// generation-stamped scratch array (no allocation).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.lbdGen++
	gen := s.lbdGen
	var n int32
	for _, l := range lits {
		lvl := s.level[l.Var()]
		if s.lbdSeen[lvl] != gen {
			s.lbdSeen[lvl] = gen
			n++
		}
	}
	return n
}

// locked reports whether r is the reason of its first literal's assignment.
func (s *Solver) locked(r ClauseRef) bool {
	l := s.ca.lits(r)[0]
	return s.reason[l.Var()] == r && s.valueLitInternal(l) == LTrue
}

// timedReduceDB is reduceDB with optional phase timing and trace event.
func (s *Solver) timedReduceDB() {
	var t0 time.Time
	if s.Timings != nil {
		t0 = time.Now()
	}
	before := len(s.learnts)
	s.reduceDB()
	if s.Timings != nil {
		s.Timings.Reduce += time.Since(t0)
	}
	if s.Tracer != nil {
		s.Tracer.ReduceDB(len(s.learnts), before-len(s.learnts))
	}
}

// reduceDB removes a slice of the learnt clauses under the configured
// policy. Watchers are purged lazily via the deleted flag; arena space is
// reclaimed by compaction at the next restart.
func (s *Solver) reduceDB() {
	if s.Reduce == ReduceLegacyActivity {
		s.reduceDBLegacy()
		return
	}
	// Tiered policy: core clauses are permanent; mid clauses stay while
	// they keep getting used between reductions and are demoted otherwise;
	// local clauses compete by activity and lose half their number.
	keep := s.learnts[:0]
	local := s.localRefs[:0]
	for _, r := range s.learnts {
		if s.ca.deleted(r) {
			continue
		}
		switch s.ca.tier(r) {
		case tierCore:
			keep = append(keep, r)
		case tierMid:
			if s.ca.used(r) {
				s.ca.setUsed(r, false)
				keep = append(keep, r)
			} else {
				s.ca.setLBDTier(r, s.ca.lbd(r), tierLocal)
				s.stats.TierDemotions++
				local = append(local, r)
			}
		default:
			local = append(local, r)
		}
	}
	sortRefs(local, func(a, b ClauseRef) bool {
		return s.ca.activity(a) > s.ca.activity(b)
	})
	limit := len(local) / 2
	for i, r := range local {
		if i < limit || s.ca.size(r) <= 2 || s.locked(r) {
			keep = append(keep, r)
			continue
		}
		s.deleteClause(r)
	}
	s.learnts = keep
	s.localRefs = local[:0]
}

// reduceDBLegacy is the pre-arena policy: order by (glue, activity), keep
// binaries, glue and locked clauses plus the better half.
func (s *Solver) reduceDBLegacy() {
	ls := s.learnts
	sortRefs(ls, func(a, b ClauseRef) bool {
		ga, gb := s.ca.lbd(a) <= coreLBD, s.ca.lbd(b) <= coreLBD
		if ga != gb {
			return ga
		}
		return s.ca.activity(a) > s.ca.activity(b)
	})
	keep := ls[:0]
	limit := len(ls) / 2
	for i, r := range ls {
		if s.ca.deleted(r) {
			continue
		}
		if s.ca.size(r) <= 2 || s.ca.lbd(r) <= coreLBD || s.locked(r) || i < limit {
			keep = append(keep, r)
		} else {
			s.deleteClause(r)
		}
	}
	s.learnts = keep
}

// deleteClause marks the clause deleted (watchers purge lazily) and records
// the deletion for proof logging and stats.
func (s *Solver) deleteClause(r ClauseRef) {
	s.stats.DeletedCls++
	if s.Proof != nil {
		s.Proof.Deleted(s.ca.lits(r))
	}
	s.ca.markDeleted(r)
}

// maybeCompact compacts the clause arena when at least compactFrac of it is
// dead space. Must only run at decision level 0 (restart boundaries).
func (s *Solver) maybeCompact() {
	if s.ca.wasted*compactDen >= len(s.ca.data)*compactNum && s.ca.wasted > 0 {
		s.compact()
	}
}

// Compaction threshold: wasted/len >= 1/5.
const (
	compactNum = 1
	compactDen = 5
)

// CompactClauseDB forces a clause-arena compaction. The solver compacts on
// its own at restart boundaries when a fifth of the arena is dead space;
// this exported hook exists for tests (arena GC between incremental sweep
// bounds) and for long-lived servers that want to return memory eagerly.
// It must be called between Solve calls (decision level 0).
func (s *Solver) CompactClauseDB() {
	if s.decisionLevel() != 0 {
		panic("sat: CompactClauseDB during search")
	}
	s.compact()
}

// compact rewrites the arena without the deleted clauses and rebuilds every
// ref-bearing structure: clause lists, watch lists and reasons. At level 0
// trail literals are permanent facts, so their reasons are dropped rather
// than relocated.
func (s *Solver) compact() {
	if s.decisionLevel() != 0 {
		panic("sat: compact during search")
	}
	dst := arena{data: make([]uint32, 0, len(s.ca.data)-s.ca.wasted)}
	relocList := func(refs []ClauseRef) []ClauseRef {
		out := refs[:0]
		for _, r := range refs {
			if s.ca.deleted(r) {
				continue
			}
			out = append(out, s.ca.reloc(r, &dst))
		}
		return out
	}
	s.clauses = relocList(s.clauses)
	s.learnts = relocList(s.learnts)
	for i := range s.reason {
		s.reason[i] = NullRef
	}
	s.ca = dst
	s.rebuildWatches()
}

// rebuildWatches drops every watch list and re-attaches the live clauses,
// preferring unfalsified watch literals so propagation strength is kept.
func (s *Solver) rebuildWatches() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	attachAll := func(refs []ClauseRef) {
		for _, r := range refs {
			if s.ca.deleted(r) {
				continue
			}
			lits := s.ca.lits(r)
			// Move two non-false literals (true or unassigned) to the watch
			// positions when available; a clause left with fewer is handled
			// by the level-0 propagation that follows inprocessing.
			w := 0
			for i := 0; i < len(lits) && w < 2; i++ {
				if s.valueLitInternal(lits[i]) != LFalse {
					lits[i], lits[w] = lits[w], lits[i]
					w++
				}
			}
			s.attach(r)
		}
	}
	attachAll(s.clauses)
	attachAll(s.learnts)
}

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (MiniSat's formulation).
func luby(x int) int {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// sortRefs is an allocation-free heapsort over clause refs (kept separate
// to avoid sort's interface boxing in this hot path).
func sortRefs(ls []ClauseRef, less func(a, b ClauseRef) bool) {
	n := len(ls)
	for i := n/2 - 1; i >= 0; i-- {
		siftRef(ls, i, n, less)
	}
	for end := n - 1; end > 0; end-- {
		ls[0], ls[end] = ls[end], ls[0]
		siftRef(ls, 0, end, less)
	}
}

func siftRef(ls []ClauseRef, i, n int, less func(a, b ClauseRef) bool) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		// Max-heap w.r.t. "greater", i.e. less(b,a); final array ascending in
		// "less", so the clauses we want to keep sort first.
		if child+1 < n && less(ls[child], ls[child+1]) {
			child++
		}
		if !less(ls[i], ls[child]) {
			return
		}
		ls[i], ls[child] = ls[child], ls[i]
		i = child
	}
}
