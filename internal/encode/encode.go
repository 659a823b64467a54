// Package encode turns a loop-free concurrent program into the paper's
// verification condition (Eq. 1-2):
//
//	Φ = Φ_ssa ∧ Φ_po ∧ Φ_rf ∧ Φ_rf_some ∧ Φ_ws ∧ Φ_fr ∧ Φ_err
//
// Each thread is symbolically executed to a sequence of global memory-access
// events (SSA form); program order is computed per memory model and added as
// fixed EOG edges; read-from and write-serialization relations become named
// Boolean variables (rf_<rt>_<ri>_<wt>_<wi>, ws_<t1>_<i1>_<t2>_<i2>) so the
// backend can reconstruct the interference decision order from names alone;
// from-read ordering is derived per rf×write pair. The VC is satisfiable iff
// the program violates an assertion within the given unrolling.
package encode

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"zpre/internal/analysis"
	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/memmodel"
	"zpre/internal/proof"
	"zpre/internal/relational"
	"zpre/internal/smt"
)

// Options configures the encoding.
type Options struct {
	// Model is the memory model (SC, TSO, PSO).
	Model memmodel.Model
	// Width is the bit width of program integers (default 8; the paper's
	// instances are 32-bit, which our blaster supports but makes every
	// experiment proportionally slower).
	Width int
	// SelectableAsserts, instead of disjoining all assertion violations into
	// one error condition, guards each violation behind a selector variable
	// (VC.Selectors). Solving under the assumption selector_i checks
	// property i alone; the instance without assumptions is trivially
	// satisfiable, so use Builder.SolveAssuming. Enables incremental
	// per-property verification on one solver.
	SelectableAsserts bool
	// WithProof records the solver's inference trace (VC.Proof); after an
	// unsat (safe) verdict, Builder.CheckProof validates it independently.
	WithProof bool
	// Unwind selects the loop-frontier semantics of the incremental encoder
	// (NewIncremental): UnwindAssume (default) cuts off executions needing
	// more iterations, UnwindAssert reports them as violations. It mirrors
	// the mode passed to cprog.Unroll on the fresh path and is ignored by
	// Program, which requires pre-unrolled input.
	Unwind cprog.UnrollMode
	// Dataflow enables the value-flow pre-analysis (internal/dataflow):
	// the program is simplified before event generation (constant folding,
	// copy propagation, dead-write elimination — skipped under
	// SelectableAsserts, which needs a stable assertion indexing), shared
	// variables get sound value intervals from a cross-thread fixpoint, rf
	// candidates whose write interval is disjoint from the read's feasible
	// interval are dropped (Stats.ValuePruned), and single-candidate reads
	// under a constant-true guard contribute fixed happens-before edges to
	// the ordering theory (Stats.FixedHB). The resulting VC is
	// equisatisfiable with the plain one.
	Dataflow bool
	// RGRanges injects interference-stabilized invariants from the
	// rely-guarantee proof-outline engine (internal/rg): Ranges[v] is a
	// sound bound on every value variable v holds at any point of any
	// execution under the model (initial value joined with every write
	// image at the interference fixpoint). For each read of v the encoder
	// asserts guard → lo ≤ val ≤ hi (signed). The constraint is guarded by
	// the read's path guard, so infeasible-path read variables stay
	// unconstrained and the VC remains equisatisfiable with the plain one;
	// Stats.RGInvariants counts the emitted constraints. In Dataflow mode
	// the range also meets into the read's feasible interval, sharpening
	// the value-infeasibility rf prune.
	RGRanges map[string]dataflow.Interval
	// StaticPrune drops interference candidates the static pre-analysis
	// (internal/analysis) proves redundant: rf edges from shadowed writes
	// (overwritten before the read can observe them — by fixed program
	// order, by a same-atomic-section successor, or by a same-critical-
	// section successor when the read holds the same mutex) and ws pairs
	// whose order is already fixed by program-order reachability. The
	// pruned VC is equisatisfiable with the full one; Stats.RFPruned and
	// Stats.WSPruned count the dropped candidates.
	StaticPrune bool
	// MHB runs the must-happens-before closure engine (analysis.CloseRF)
	// over the event graph before the interference relations are emitted:
	// the fence/lock/create-join-aware fixed order is closed under a
	// fixpoint that statically fixes the rf edge of every unconditional
	// single-candidate read, derives the must-fr edges it entails, and
	// drops rf candidates the enriched relation contradicts. Candidate
	// sets are first shrunk by the window/lockset criteria and the value
	// oracles (MHB implies the value-flow facts, though not the program
	// simplifier), since the base order alone never isolates a cross-
	// thread candidate. Derived edges are mirrored into the ordering
	// theory as fixed edges (decided at level 0) and pairs they determine
	// are elided; the VC stays equisatisfiable with the plain one. Counted
	// by Stats.MHBFixedRF,
	// Stats.MHBFixedFR and Stats.MHBPruned; composes with StaticPrune,
	// Dataflow and RGRanges. The incremental encoder forces it off (edge
	// fixing, like candidate pruning, is not bound-monotone).
	MHB bool
}

// Event is one global memory access in SSA form.
type Event struct {
	ID      smt.EventID
	Thread  int // 0 = main
	Index   int // per-thread memory-event index (used in rf/ws names)
	Var     string
	IsWrite bool
	Guard   smt.Bool
	Val     smt.BV
	seqPos  int // position in the thread's access sequence (incl. fences)

	// Value-flow facts (Dataflow mode, nil otherwise): for a write, a sound
	// interval for the stored value; for a read, the interval of values it
	// can feasibly observe when its guard holds (refined by lock semantics
	// and matched assumes). Used by the value-infeasibility rf prune.
	absVal *dataflow.Interval
	feas   *dataflow.Interval
}

// Stats summarises the encoded VC.
type Stats struct {
	Threads   int
	Events    int
	Reads     int
	Writes    int
	RFVars    int
	WSVars    int
	RFPruned  int
	WSPruned  int
	POEdges   int
	Asserts   int
	Assumes   int
	Clauses   int
	Variables int
	// Dataflow-mode counters: rf candidates dropped because the write's
	// value interval cannot meet the read's feasible interval; candidates
	// only the relational closed-form bounds (internal/relational) could
	// refute; constant folds/copy propagations applied by the pre-encoding
	// simplifier; and fixed happens-before edges derived from
	// single-candidate reads.
	ValuePruned   int
	RelPruned     int
	FoldedAssigns int
	FixedHB       int
	// RGInvariants counts per-read range constraints injected from the
	// rely-guarantee invariants (Options.RGRanges).
	RGInvariants int
	// MHB-mode counters: rf edges fixed for unconditional single-candidate
	// reads, must-fr edges derived from them, and rf candidates dropped by
	// the closure fixpoint.
	MHBFixedRF int
	MHBFixedFR int
	MHBPruned  int
	// DataflowTime is the time spent simplifying and computing the value
	// fixpoint (zero unless Dataflow is enabled).
	DataflowTime time.Duration
	// StaticTime is the time spent in the static interference pre-analysis
	// (the "static-prune" phase of the telemetry span set). The analysis
	// runs only when consumed, so the encoder leaves this zero unless
	// StaticPrune or MHB was set; a later VC.StaticAnalysis call adds its
	// time to the VC's copy.
	StaticTime time.Duration
}

// VC is an encoded verification condition ready to solve.
type VC struct {
	Builder *smt.Builder
	Events  []*Event
	Model   memmodel.Model
	Width   int
	Stats   Stats
	// Selectors guards one assertion each (SelectableAsserts mode): solving
	// under the assumption Selectors[i] asks "is assertion i violable?".
	Selectors []smt.Bool
	// AssertThreads records the thread each assertion belongs to, aligned
	// with Selectors.
	AssertThreads []int
	// Proof is the recorded inference trace (WithProof mode), checkable
	// with Builder.CheckProof after an unsat result.
	Proof *proof.Trace
	// MHBOrdered (MHB mode, nil otherwise) reports whether the accesses at
	// the two (thread, index) coordinates are must-ordered — in either
	// direction — by the closed happens-before relation, including the
	// closure's derived edges. Only the ZPREStatic strategy reads it (see
	// pipeline.Decide): it ranks such interference variables, whose value
	// is already forced at level 0, below every other pair of their class.
	MHBOrdered func(t1, i1, t2, i2 int) bool

	// The static pre-analysis, computed on first use (see StaticAnalysis):
	// program is the encoded program until then, and nil afterwards or
	// when there is none to analyse (the incremental encoder's VC).
	program *cprog.Program
	static  *analysis.Result

	// decide is the decide stage's storage (see DecideWorkspace).
	decide *core.Workspace
}

// DecideWorkspace returns the storage the decide stage classifies and
// ranks this instance's variables in: drawn from core's pool on the first
// call, the same workspace afterwards, and handed back by Release.
func (vc *VC) DecideWorkspace() *core.Workspace {
	if vc.decide == nil {
		vc.decide = core.GetWorkspace()
	}
	return vc.decide
}

// Release hands the instance's solving storage — the Builder's and the
// decide stage's — back to their pools for the next instance. Afterwards
// the Builder, its name table, its model values and the decider built for
// the instance are invalid; Events, Stats and a recorded Proof stay the
// caller's. Check and witness extraction must run before Release.
// Releasing twice is a no-op.
func (vc *VC) Release() {
	vc.Builder.Release()
	if vc.decide != nil {
		vc.decide.Release()
		vc.decide = nil
	}
}

// StaticAnalysis returns the static interference analysis of the encoded
// program (locksets, may-happen-in-parallel, race classification), or nil
// if its per-event coordinates fail to align with the encoder's. Only
// StaticPrune, the MHB closure and the ZPREStatic decision order consume
// it, so it is computed on the first call (by the encoder itself under
// StaticPrune or MHB) and memoized; its time is added to
// Stats.StaticTime. The incremental encoder's VC has none. Like the
// Builder, a VC is not safe for concurrent use.
func (vc *VC) StaticAnalysis() *analysis.Result {
	if vc.program != nil {
		var took time.Duration
		vc.static, took = analyzeStatic(vc.program, vc.Events)
		vc.Stats.StaticTime += took
		vc.program = nil
	}
	return vc.static
}

// analyzeStatic runs the static interference analysis of p and trusts it
// only when its per-event coordinates align with the encoder's events (a
// defensive guard against the two walks drifting apart; alignment is also
// asserted corpus-wide by the test suite).
func analyzeStatic(p *cprog.Program, events []*Event) (*analysis.Result, time.Duration) {
	start := time.Now()
	static, err := analysis.Analyze(p)
	if err != nil || !alignedWithEvents(static, events) {
		static = nil
	}
	return static, time.Since(start)
}

// window is a span of events that must not be interleaved by other threads'
// accesses to the given variables (atomic sections and lock test-and-sets).
type window struct {
	thread int
	first  *Event
	last   *Event
	vars   map[string]bool
}

// contains reports whether ev (an event of the window's thread) lies within
// the window's span in the thread's access sequence.
func (w *window) contains(ev *Event) bool {
	return ev.Thread == w.thread && ev.seqPos >= w.first.seqPos && ev.seqPos <= w.last.seqPos
}

type encoder struct {
	bd   *smt.Builder
	opts Options

	events []*Event
	static *analysis.Result // nil when misaligned with the event space
	prune  bool
	mhb    bool

	// mhbDropped holds the (read, write) rf candidate pairs the MHB closure
	// fixpoint proved impossible, for emitReadFrom to elide (MHB mode, nil
	// otherwise).
	mhbDropped map[[2]smt.EventID]bool

	// Per thread: the access sequence (with fences) and aligned events.
	seqs      [][]memmodel.Access
	seqEvents [][]*Event

	assumes       []smt.Bool
	violations    []smt.Bool
	assertThreads []int
	windows       []window

	// Per thread: the next memory-event index (rf/ws name coordinate) and
	// the insertion cursor into the access sequence. The fresh path keeps
	// the cursor at the end (plain appends); the incremental path moves it
	// to a loop frontier to splice new iterations in program order.
	eventIndex []int
	cursor     []int

	// onWhile, when set, handles While statements instead of failing (the
	// incremental encoder's frontier machinery). onSplice is notified after
	// an access is spliced at a position other than the end, so frontier
	// cursors tracking later positions can shift right.
	onWhile  func(ts *threadState, st cprog.While, shared map[string]bool) error
	onSplice func(tid, pos int)

	atomicCounter int
	guardCounter  int
	stats         Stats

	// flow holds the value-flow facts and rel the relational closed-form
	// bounds (Dataflow mode, nil otherwise); pendingHB the fixed
	// happens-before edges derived during rf emission, applied by
	// emitFixedHB after all candidate sets are final.
	flow      *dataflow.Facts
	rel       *relational.Facts
	pendingHB []fixedEdge
}

type fixedEdge struct {
	w, r smt.EventID
}

// threadState is the symbolic execution state of one thread.
type threadState struct {
	id       int
	guard    smt.Bool
	locals   map[string]smt.BV
	atomicID int
	// abs mirrors locals in the interval domain (Dataflow mode, nil
	// otherwise): a sound interval for each local's value whenever the
	// thread state's guard holds.
	abs map[string]dataflow.Interval
}

// Program encodes a loop-free program. Programs containing loops must be
// unrolled first (cprog.Unroll); an error is returned otherwise.
func Program(p *cprog.Program, opts Options) (*VC, error) {
	if p.HasLoops() {
		return nil, fmt.Errorf("encode: program %q contains loops; unroll first", p.Name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Width == 0 {
		opts.Width = 8
	}
	var flow *dataflow.Facts
	var rel *relational.Facts
	var flowStats dataflow.SimplifyStats
	var flowTime time.Duration
	if opts.Dataflow || opts.MHB {
		// The MHB closure needs the value oracles to shrink rf candidate
		// sets before looking for forced edges, so it computes the facts
		// even when Dataflow is off — but runs the pre-encoding program
		// simplifier only under the explicit Dataflow flag.
		dfStart := time.Now()
		if opts.Dataflow && !opts.SelectableAsserts {
			// Simplification may drop always-true asserts, which would
			// break the per-assert indexing SelectableAsserts exposes;
			// the interval analysis and rf pruning below stay on.
			p, flowStats = dataflow.Simplify(p, opts.Width)
		}
		flow = dataflow.Analyze(p, opts.Width)
		rel = relational.Analyze(p, opts.Width)
		flowTime = time.Since(dfStart)
	}
	nThreads := len(p.Threads) + 1
	var bd *smt.Builder
	var trace *proof.Trace
	if opts.WithProof {
		bd, trace = smt.NewBuilderWithProof()
	} else {
		bd = smt.NewBuilder()
	}
	e := &encoder{
		bd:         bd,
		opts:       opts,
		seqs:       make([][]memmodel.Access, nThreads),
		seqEvents:  make([][]*Event, nThreads),
		eventIndex: make([]int, nThreads),
		cursor:     make([]int, nThreads),
		flow:       flow,
		rel:        rel,
	}
	e.stats.FoldedAssigns = flowStats.FoldedAssigns + flowStats.FoldedGuards
	e.stats.DataflowTime = flowTime

	// Main thread prologue: one initialising write per shared variable,
	// then a fence (create/join preserve order across them; paper §3.1).
	shared := map[string]bool{}
	main := e.newThreadState(0)
	for _, d := range p.Shared {
		shared[d.Name] = true
		w := e.addWrite(main, d.Name, e.bd.BVConst(uint64(d.Init), opts.Width))
		e.noteWriteConst(w, uint64(d.Init))
	}
	e.addFence(main)
	initEvents := append([]*Event(nil), e.events...)

	// Threads.
	firstThreadEvent := len(e.events)
	for ti, t := range p.Threads {
		ts := e.newThreadState(ti + 1)
		if err := e.execStmts(ts, t.Body, shared); err != nil {
			bd.Release()
			return nil, err
		}
	}
	threadEvents := e.events[firstThreadEvent:]

	// Main thread epilogue (after joining all threads).
	e.addFence(main)
	firstPostEvent := len(e.events)
	if err := e.execStmts(main, p.Post, shared); err != nil {
		bd.Release()
		return nil, err
	}
	postEvents := e.events[firstPostEvent:]

	// Static interference pre-analysis: rfPrunable's lockset criterion needs
	// it now, under StaticPrune and inside the MHB closure alike; otherwise
	// it is left to VC.StaticAnalysis, for a decision order that asks.
	e.prune = opts.StaticPrune
	e.mhb = opts.MHB
	eagerStatic := e.prune || e.mhb
	if eagerStatic {
		e.static, e.stats.StaticTime = analyzeStatic(p, e.events)
	}

	// Program order per thread under the memory model.
	reach := e.emitProgramOrder(initEvents, threadEvents, postEvents)

	// Must-happens-before closure: fix forced rf edges, derive must-fr
	// edges and mark contradicted candidates before the relations are
	// emitted over the enriched order.
	if e.mhb {
		e.closeMHB(reach)
	}

	// Interference relations.
	e.emitReadFrom(reach)
	e.emitWriteSerialization(reach)
	e.emitAtomicWindows()
	e.emitFixedHB(reach)

	// Assumptions and the error condition.
	for _, a := range e.assumes {
		e.bd.Assert(a)
	}
	var selectors []smt.Bool
	if opts.SelectableAsserts {
		for i, v := range e.violations {
			sel := e.bd.NamedBool("sel_" + strconv.Itoa(i))
			e.bd.AssertClause(e.bd.Not(sel), v)
			selectors = append(selectors, sel)
		}
	} else {
		e.bd.Assert(e.bd.OrN(e.violations...))
	}

	e.stats.Threads = nThreads
	e.stats.Events = len(e.events)
	e.stats.Asserts = len(e.violations)
	e.stats.Assumes = len(e.assumes)
	e.stats.Clauses = e.bd.NumClauses()
	e.stats.Variables = e.bd.NumVars()
	vc := &VC{
		Builder:       e.bd,
		Events:        e.events,
		Model:         opts.Model,
		Width:         opts.Width,
		Stats:         e.stats,
		Selectors:     selectors,
		AssertThreads: e.assertThreads,
		Proof:         trace,
	}
	if eagerStatic {
		vc.static = e.static
	} else {
		vc.program = p
	}
	if e.mhb {
		vc.MHBOrdered = e.mhbOrderedOracle(reach)
	}
	return vc, nil
}

// alignedWithEvents verifies that the static analysis enumerated exactly the
// encoder's events: same per-thread counts and, at every (thread, index)
// coordinate, the same variable and access kind.
func alignedWithEvents(static *analysis.Result, events []*Event) bool {
	if static.NumAccesses() != len(events) {
		return false
	}
	for _, ev := range events {
		a := static.Access(ev.Thread, ev.Index)
		if a == nil || a.Var != ev.Var || a.IsWrite != ev.IsWrite {
			return false
		}
	}
	return true
}

// insertAccess splices an access (with its aligned event; nil for fences)
// into the thread's sequence at the thread's insertion cursor and returns
// the position. When the cursor is mid-sequence (a loop frontier), the
// displaced accesses shift right, as do their events' seqPos.
func (e *encoder) insertAccess(tid int, acc memmodel.Access, ev *Event) int {
	pos := e.cursor[tid]
	seq := append(e.seqs[tid], memmodel.Access{})
	copy(seq[pos+1:], seq[pos:])
	seq[pos] = acc
	e.seqs[tid] = seq
	sev := append(e.seqEvents[tid], nil)
	copy(sev[pos+1:], sev[pos:])
	sev[pos] = ev
	e.seqEvents[tid] = sev
	for _, d := range sev[pos+1:] {
		if d != nil {
			d.seqPos++
		}
	}
	e.cursor[tid] = pos + 1
	if e.onSplice != nil {
		e.onSplice(tid, pos)
	}
	return pos
}

func (e *encoder) addEvent(ts *threadState, name string, isWrite bool, val smt.BV) *Event {
	idx := e.eventIndex[ts.id]
	ev := &Event{
		ID:      e.bd.NewEvent("t" + strconv.Itoa(ts.id) + "_" + strconv.Itoa(idx)),
		Thread:  ts.id,
		Index:   idx,
		Var:     name,
		IsWrite: isWrite,
		Guard:   ts.guard,
		Val:     val,
	}
	e.eventIndex[ts.id] = idx + 1
	e.events = append(e.events, ev)
	ev.seqPos = e.insertAccess(ts.id, memmodel.Access{
		Var:     name,
		IsWrite: isWrite,
		Atomic:  ts.atomicID,
	}, ev)
	if isWrite {
		e.stats.Writes++
	} else {
		e.stats.Reads++
	}
	return ev
}

// guardName names the branch-condition variable of thread tid's n-th branch
// (the control-flow heuristic's guard_ scheme).
func guardName(tid, n int) string {
	return "guard_" + strconv.Itoa(tid) + "_" + strconv.Itoa(n)
}

func (e *encoder) addWrite(ts *threadState, name string, val smt.BV) *Event {
	return e.addEvent(ts, name, true, val)
}

func (e *encoder) addRead(ts *threadState, name string) *Event {
	val := e.bd.NamedBV("v"+strconv.Itoa(ts.id)+"_"+strconv.Itoa(e.eventIndex[ts.id])+"_"+name, e.opts.Width)
	ev := e.addEvent(ts, name, false, val)
	if e.flow != nil {
		iv := e.flow.Range(name)
		ev.feas = &iv
	}
	if iv, ok := e.opts.RGRanges[name]; ok && !iv.IsEmpty() && !iv.IsTop(e.opts.Width) {
		w := e.opts.Width
		var rng smt.Bool
		if c, ok := iv.Const(w); ok {
			rng = e.bd.BVEq(val, e.bd.BVConst(c, w))
		} else {
			lo := e.bd.BVConst(uint64(iv.Lo)&dataflow.Mask(w), w)
			hi := e.bd.BVConst(uint64(iv.Hi)&dataflow.Mask(w), w)
			rng = e.bd.And(e.bd.BVSle(lo, val), e.bd.BVSle(val, hi))
		}
		e.assumes = append(e.assumes, e.bd.Implies(ev.Guard, rng))
		e.stats.RGInvariants++
		if ev.feas != nil {
			m := dataflow.Meet(*ev.feas, iv)
			ev.feas = &m
		}
	}
	return ev
}

func (e *encoder) addFence(ts *threadState) {
	e.insertAccess(ts.id, memmodel.Access{IsFence: true}, nil)
}

// execStmts symbolically executes a statement list.
func (e *encoder) execStmts(ts *threadState, body []cprog.Stmt, shared map[string]bool) error {
	for _, s := range body {
		if err := e.execStmt(ts, s, shared); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) execStmt(ts *threadState, s cprog.Stmt, shared map[string]bool) error {
	switch st := s.(type) {
	case cprog.Local:
		if st.Init != nil {
			v, err := e.evalExpr(ts, st.Init, shared)
			if err != nil {
				return err
			}
			ts.locals[st.Name] = v
			e.noteLocal(ts, st.Name, st.Init, shared)
		} else {
			ts.locals[st.Name] = e.bd.BVConst(0, e.opts.Width)
			e.noteLocalConst(ts, st.Name, 0)
		}
	case cprog.Assign:
		v, err := e.evalExpr(ts, st.Rhs, shared)
		if err != nil {
			return err
		}
		if shared[st.Lhs] {
			w := e.addWrite(ts, st.Lhs, v)
			e.noteWrite(w, ts, st.Rhs, shared)
		} else {
			ts.locals[st.Lhs] = v
			e.noteLocal(ts, st.Lhs, st.Rhs, shared)
		}
	case cprog.Havoc:
		v := e.bd.NewBV(e.opts.Width)
		if shared[st.Name] {
			e.addWrite(ts, st.Name, v)
		} else {
			ts.locals[st.Name] = v
			e.noteLocalTop(ts, st.Name)
		}
	case cprog.Assume:
		before := len(e.events)
		c, err := e.evalCond(ts, st.Cond, shared)
		if err != nil {
			return err
		}
		e.assumes = append(e.assumes, e.bd.Implies(ts.guard, c))
		e.refineFromAssume(st.Cond, e.events[before:], shared)
	case cprog.Assert:
		c, err := e.evalCond(ts, st.Cond, shared)
		if err != nil {
			return err
		}
		e.violations = append(e.violations, e.bd.And(ts.guard, e.bd.Not(c)))
		e.assertThreads = append(e.assertThreads, ts.id)
	case cprog.If:
		c, err := e.evalCond(ts, st.Cond, shared)
		if err != nil {
			return err
		}
		// Tag the branch condition so the control-flow heuristic (the
		// paper's "Other Attempts", after Chen & He 2018) can find it.
		e.guardCounter++
		e.bd.NameVar(c, guardName(ts.id, e.guardCounter))
		saved := ts.locals
		savedGuard := ts.guard
		savedAbs := ts.abs

		thenLocals := copyLocals(saved)
		ts.locals = thenLocals
		ts.abs = copyAbs(savedAbs)
		ts.guard = e.bd.And(savedGuard, c)
		if err := e.execStmts(ts, st.Then, shared); err != nil {
			return err
		}
		thenLocals = ts.locals
		thenAbs := ts.abs

		elseLocals := copyLocals(saved)
		ts.locals = elseLocals
		ts.abs = copyAbs(savedAbs)
		ts.guard = e.bd.And(savedGuard, e.bd.Not(c))
		if err := e.execStmts(ts, st.Else, shared); err != nil {
			return err
		}
		elseLocals = ts.locals
		elseAbs := ts.abs

		ts.guard = savedGuard
		ts.locals = mergeLocals(e.bd, c, thenLocals, elseLocals, e.opts.Width)
		ts.abs = mergeAbs(thenAbs, elseAbs, e.opts.Width)
	case cprog.While:
		if e.onWhile != nil {
			return e.onWhile(ts, st, shared)
		}
		return fmt.Errorf("encode: while reached (program not unrolled)")
	case cprog.Lock:
		// Blocking acquire: atomic { assume(m == 0); m = 1; } followed by an
		// acquire fence — pthread_mutex_lock is a full barrier, so critical
		// sections do not leak under TSO/PSO.
		e.addFence(ts)
		save := ts.atomicID
		e.atomicCounter++
		ts.atomicID = e.atomicCounter
		r := e.addRead(ts, st.Mutex)
		e.assumes = append(e.assumes, e.bd.Implies(ts.guard, e.bd.BVIsZero(r.Val)))
		// The test-and-set only proceeds when it observed 0: the read's
		// feasible interval collapses to the singleton {0}, which prunes
		// rf candidates from other threads' lock writes.
		e.refineRead(r, dataflow.Interval{})
		w := e.addWrite(ts, st.Mutex, e.bd.BVConst(1, e.opts.Width))
		e.noteWriteConst(w, 1)
		ts.atomicID = save
		e.addFence(ts)
		e.windows = append(e.windows, window{
			thread: ts.id,
			first:  r,
			last:   w,
			vars:   map[string]bool{st.Mutex: true},
		})
	case cprog.Unlock:
		// Release fence before the unlocking store (full-barrier semantics).
		e.addFence(ts)
		w := e.addWrite(ts, st.Mutex, e.bd.BVConst(0, e.opts.Width))
		e.noteWriteConst(w, 0)
		e.addFence(ts)
	case cprog.Fence:
		e.addFence(ts)
	case cprog.Atomic:
		save := ts.atomicID
		e.atomicCounter++
		ts.atomicID = e.atomicCounter
		firstIdx := e.cursor[ts.id]
		if err := e.execStmts(ts, st.Body, shared); err != nil {
			return err
		}
		ts.atomicID = save
		var evs []*Event
		for _, ev := range e.seqEvents[ts.id][firstIdx:e.cursor[ts.id]] {
			if ev != nil {
				evs = append(evs, ev)
			}
		}
		if len(evs) > 0 {
			vars := map[string]bool{}
			for _, ev := range evs {
				vars[ev.Var] = true
			}
			e.windows = append(e.windows, window{
				thread: ts.id,
				first:  evs[0],
				last:   evs[len(evs)-1],
				vars:   vars,
			})
		}
	default:
		return fmt.Errorf("encode: unknown statement %T", s)
	}
	return nil
}

func copyLocals(m map[string]smt.BV) map[string]smt.BV {
	out := make(map[string]smt.BV, len(m))
	for k, v := range m { //mapiter:ok map-to-map copy
		out[k] = v
	}
	return out
}

func mergeLocals(bd *smt.Builder, cond smt.Bool, then, els map[string]smt.BV, width int) map[string]smt.BV {
	// Sorted key iteration: the merge allocates circuit gates, so map order
	// would make variable numbering (and hence golden files and incremental
	// delta encodings) nondeterministic across runs.
	keys := make([]string, 0, len(then)+len(els))
	for k := range then { //mapiter:ok keys sorted below
		keys = append(keys, k)
	}
	for k := range els { //mapiter:ok keys sorted below
		if _, ok := then[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make(map[string]smt.BV, len(keys))
	zero := bd.BVConst(0, width)
	for _, k := range keys {
		tv, tok := then[k]
		ev, eok := els[k]
		if !tok {
			tv = zero // declared only in the else-branch
		}
		if !eok {
			ev = zero // declared only in the then-branch
		}
		out[k] = bd.BVIte(cond, tv, ev)
	}
	return out
}

// evalCond evaluates an expression as a condition (non-zero is true).
func (e *encoder) evalCond(ts *threadState, x cprog.Expr, shared map[string]bool) (smt.Bool, error) {
	v, err := e.evalExpr(ts, x, shared)
	if err != nil {
		return smt.Bool{}, err
	}
	return e.bd.Not(e.bd.BVIsZero(v)), nil
}

// evalExpr evaluates an integer expression; every syntactic read of a shared
// variable produces a fresh global read event (SSA).
func (e *encoder) evalExpr(ts *threadState, x cprog.Expr, shared map[string]bool) (smt.BV, error) {
	w := e.opts.Width
	switch ex := x.(type) {
	case cprog.Const:
		return e.bd.BVConst(uint64(ex.Value), w), nil
	case cprog.Ref:
		if shared[ex.Name] {
			return e.addRead(ts, ex.Name).Val, nil
		}
		v, ok := ts.locals[ex.Name]
		if !ok {
			return smt.BV{}, fmt.Errorf("encode: use of undeclared local %q", ex.Name)
		}
		return v, nil
	case cprog.UnOp:
		v, err := e.evalExpr(ts, ex.X, shared)
		if err != nil {
			return smt.BV{}, err
		}
		switch ex.Op {
		case cprog.OpNeg:
			return e.bd.BVNeg(v), nil
		case cprog.OpBitNot:
			return e.bd.BVNot(v), nil
		case cprog.OpLNot:
			return e.bd.BoolToBV(e.bd.BVIsZero(v), w), nil
		}
		return smt.BV{}, fmt.Errorf("encode: unknown unary op %v", ex.Op)
	case cprog.BinOp:
		l, err := e.evalExpr(ts, ex.L, shared)
		if err != nil {
			return smt.BV{}, err
		}
		if ex.Op == cprog.OpShl || ex.Op == cprog.OpShr {
			c, ok := ex.R.(cprog.Const)
			if !ok {
				return smt.BV{}, fmt.Errorf("encode: shift amount must be a constant")
			}
			k := int(c.Value)
			if k < 0 || k >= w {
				return e.bd.BVConst(0, w), nil
			}
			if ex.Op == cprog.OpShl {
				return e.bd.BVShlConst(l, k), nil
			}
			return e.bd.BVLshrConst(l, k), nil
		}
		r, err := e.evalExpr(ts, ex.R, shared)
		if err != nil {
			return smt.BV{}, err
		}
		b2i := func(b smt.Bool) smt.BV { return e.bd.BoolToBV(b, w) }
		switch ex.Op {
		case cprog.OpAdd:
			return e.bd.BVAdd(l, r), nil
		case cprog.OpSub:
			return e.bd.BVSub(l, r), nil
		case cprog.OpMul:
			return e.bd.BVMul(l, r), nil
		case cprog.OpBitAnd:
			return e.bd.BVAnd(l, r), nil
		case cprog.OpBitOr:
			return e.bd.BVOr(l, r), nil
		case cprog.OpBitXor:
			return e.bd.BVXor(l, r), nil
		case cprog.OpEq:
			return b2i(e.bd.BVEq(l, r)), nil
		case cprog.OpNe:
			return b2i(e.bd.Not(e.bd.BVEq(l, r))), nil
		case cprog.OpLt:
			return b2i(e.bd.BVSlt(l, r)), nil
		case cprog.OpLe:
			return b2i(e.bd.BVSle(l, r)), nil
		case cprog.OpGt:
			return b2i(e.bd.BVSlt(r, l)), nil
		case cprog.OpGe:
			return b2i(e.bd.BVSle(r, l)), nil
		case cprog.OpLAnd:
			lt := e.bd.Not(e.bd.BVIsZero(l))
			rt := e.bd.Not(e.bd.BVIsZero(r))
			return b2i(e.bd.And(lt, rt)), nil
		case cprog.OpLOr:
			lt := e.bd.Not(e.bd.BVIsZero(l))
			rt := e.bd.Not(e.bd.BVIsZero(r))
			return b2i(e.bd.Or(lt, rt)), nil
		}
		return smt.BV{}, fmt.Errorf("encode: unknown binary op %v", ex.Op)
	}
	return smt.BV{}, fmt.Errorf("encode: unknown expression %T", x)
}
