// Incremental (delta) encoding for unroll sweeps.
//
// The fresh pipeline re-encodes the whole program and starts a fresh solver
// for every unroll bound, discarding all learned clauses and search state.
// The incremental encoder instead keeps one Builder (hence one sat.Solver
// and one ordering theory) alive across bounds 1..k and, per Extend call,
// emits only the delta of the next unrolling:
//
//   - every loop keeps a *frontier*: the symbolic state (guard, locals,
//     next loop condition — whose reads are already emitted) at which the
//     next iteration will continue. Extending splices the new iteration's
//     events into the thread's access sequence at a marker position, so
//     program order is recomputed over the exact sequence the fresh encoder
//     would produce at the higher bound;
//   - bound-independent facts (SSA value constraints, Φ_po edges, per-
//     candidate Φ_rf/Φ_fr/Φ_ws clauses, atomic windows, program assumes)
//     are asserted at the root and stay valid at every later bound: any
//     model of the fresh bound-(k+1) formula extends to a model of the
//     bound-k clause set (activation literals of other bounds free, exit
//     variables unconstrained), so root-level consequences never conflict
//     with future deltas;
//   - bound-dependent facts are guarded by a per-bound activation literal
//     act_k passed as a solve assumption: the loop-frontier exit constraint
//     (the unroll mode's assume(!cond)), the re-linking of each loop's exit
//     variables to the bound-k merged locals, and Φ_rf_some (a read's
//     candidate set grows with the bound, so the "reads from some write"
//     clause is re-emitted per bound over the current candidates);
//   - the error condition is guarded by err_k: the disjunction of all
//     assertion violations visible at bound k.
//
// Under the assumptions {act_k, err_k} the formula is equisatisfiable with
// the fresh encoding at bound k (clauses guarded by other bounds' literals
// can be switched off by the solver), so verdicts match bound for bound
// while learned clauses, VSIDS activities and saved phases carry over.
package encode

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/memmodel"
	"zpre/internal/relational"
	"zpre/internal/smt"
)

// ErrUnsupported marks a program shape the incremental encoder cannot
// handle (currently: loops inside atomic sections, and the SelectableAsserts
// / WithProof encoding modes). Callers fall back to the fresh per-bound
// pipeline.
var ErrUnsupported = errors.New("encode: unsupported by incremental encoding")

// BoundAssumptions are the solve assumptions activating one unroll bound.
type BoundAssumptions struct {
	Bound int
	// Act activates the bound's frontier exit constraints, exit-variable
	// links and Φ_rf_some instance.
	Act smt.Bool
	// Err activates the bound's error condition (assertion violations).
	Err smt.Bool
}

// iteration is one unrolled loop iteration: its entry condition and the
// thread-local state after its body.
type iteration struct {
	cond   smt.Bool
	locals map[string]smt.BV
}

// frontier is the resumable unrolling state of one loop instance.
type frontier struct {
	id     int
	thread int
	stmt   cprog.While
	shared map[string]bool
	// insertPos is the sequence position of the frontier marker; the next
	// iteration's accesses splice immediately before it.
	insertPos int
	curGuard  smt.Bool
	curLocals map[string]smt.BV
	// curAbs mirrors curLocals in the interval domain (Dataflow mode).
	curAbs map[string]dataflow.Interval
	// nextCond is the loop condition for the next (not yet unrolled)
	// iteration; its shared reads are already emitted at the frontier, so
	// they are reused verbatim when the iteration materialises — exactly
	// the reads the fresh encoder emits there at the higher bound.
	nextCond smt.Bool
	base     map[string]smt.BV // locals at loop entry (L_0)
	iters    []iteration
	// exitKeys/exitVars: the downstream code is encoded once over these
	// fresh variables; each bound re-links them to that bound's merged
	// locals under act_k.
	exitKeys []string
	exitVars map[string]smt.BV
}

// readState tracks one read's interference candidates across bounds.
type readState struct {
	ev     *Event
	cands  []*Event
	rfVars []smt.Bool
}

// Incremental encodes a (possibly looping) program bound by bound onto a
// single Builder. Create with NewIncremental, then call Extend once per
// bound and solve with Builder.SolveAssuming(opts, ba.Act, ba.Err).
type Incremental struct {
	e      *encoder
	prog   *cprog.Program
	mode   cprog.UnrollMode
	bound  int
	broken error

	started   bool
	shared    map[string]bool
	initCount int
	frontiers []*frontier

	create, join smt.EventID
	poEdges      [][2]smt.EventID
	emittedPO    map[[2]smt.EventID]bool
	dirty        map[int]bool

	readsByVar  map[string][]*readState
	writesByVar map[string][]*Event
	doneEvents  int
	doneWindows int
	doneAssumes int

	vc *VC
}

// NewIncremental prepares an incremental encoding of p. The program is not
// unrolled by the caller — loops are handled natively at their frontiers.
// StaticPrune and MHB are ignored (candidate pruning and happens-before
// edge fixing are not bound-monotone in the coordinates the incremental
// path reuses: a read that is single-candidate at bound k can gain
// candidates at bound k+1, so an edge fixed early would over-constrain the
// later instance).
func NewIncremental(p *cprog.Program, opts Options) (*Incremental, error) {
	if opts.SelectableAsserts {
		return nil, fmt.Errorf("%w: SelectableAsserts", ErrUnsupported)
	}
	if opts.WithProof {
		return nil, fmt.Errorf("%w: WithProof (proofs are not sound under assumptions)", ErrUnsupported)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Width == 0 {
		opts.Width = 8
	}
	opts.StaticPrune = false
	opts.MHB = false
	var flow *dataflow.Facts
	var rel *relational.Facts
	var flowStats dataflow.SimplifyStats
	var flowTime time.Duration
	if opts.Dataflow {
		// Simplification, the value fixpoint and the relational closed
		// forms all run on the looping source program, so every fact is
		// bound-independent: a candidate pruned at bound k stays prunable
		// at every later bound, keeping the delta encoding monotone.
		dfStart := time.Now()
		p, flowStats = dataflow.Simplify(p, opts.Width)
		flow = dataflow.Analyze(p, opts.Width)
		rel = relational.Analyze(p, opts.Width)
		flowTime = time.Since(dfStart)
	}
	nThreads := len(p.Threads) + 1
	e := &encoder{
		bd:         smt.NewBuilder(),
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
	inc := &Incremental{
		e:           e,
		prog:        p,
		mode:        opts.Unwind,
		shared:      map[string]bool{},
		emittedPO:   map[[2]smt.EventID]bool{},
		dirty:       map[int]bool{},
		readsByVar:  map[string][]*readState{},
		writesByVar: map[string][]*Event{},
		vc:          &VC{Builder: e.bd, Model: opts.Model, Width: opts.Width},
	}
	e.onWhile = inc.handleWhile
	e.onSplice = inc.handleSplice
	return inc, nil
}

// Bound returns the number of Extend calls so far (the current bound).
func (inc *Incremental) Bound() int { return inc.bound }

// VC returns the live verification condition: its Builder, Events and Stats
// reflect everything encoded up to the last Extend. It is the handle passed
// to witness extraction after a Sat verdict.
func (inc *Incremental) VC() *VC { return inc.vc }

// Frontiers reports how many loop instances are being tracked (0 for a
// loop-free program).
func (inc *Incremental) Frontiers() int { return len(inc.frontiers) }

// Extend unrolls every loop by one more iteration, emits the encoding delta
// and returns the assumptions under which the Builder solves exactly the
// bound-k instance. The first call encodes the whole program at bound 1.
// After an error the Incremental is unusable (the formula may be half
// emitted); re-create and re-extend to recover.
func (inc *Incremental) Extend() (BoundAssumptions, error) {
	if inc.broken != nil {
		return BoundAssumptions{}, inc.broken
	}
	inc.bound++
	ba, err := inc.extend()
	if err != nil {
		inc.broken = err
		return BoundAssumptions{}, err
	}
	return ba, nil
}

func (inc *Incremental) extend() (BoundAssumptions, error) {
	e := inc.e
	if !inc.started {
		inc.started = true
		p := inc.prog
		// Main thread prologue: initialising writes, then a fence — the
		// same walk as the fresh encoder's.
		main := e.newThreadState(0)
		for _, d := range p.Shared {
			inc.shared[d.Name] = true
			w := e.addWrite(main, d.Name, e.bd.BVConst(uint64(d.Init), e.opts.Width))
			e.noteWriteConst(w, uint64(d.Init))
		}
		e.addFence(main)
		inc.initCount = len(e.events)
		for ti, t := range p.Threads {
			ts := e.newThreadState(ti + 1)
			if err := e.execStmts(ts, t.Body, inc.shared); err != nil {
				return BoundAssumptions{}, err
			}
		}
		e.addFence(main)
		if err := e.execStmts(main, p.Post, inc.shared); err != nil {
			return BoundAssumptions{}, err
		}
		inc.create = e.bd.NewEvent("create")
		inc.join = e.bd.NewEvent("join")
		for t := range e.seqs {
			inc.dirty[t] = true
		}
	} else {
		// Extend the frontiers that existed before this bound; frontiers
		// created during the walk (nested loops) self-expand to the current
		// bound at creation.
		n := len(inc.frontiers)
		for _, f := range inc.frontiers[:n] {
			if err := inc.extendFrontier(f); err != nil {
				return BoundAssumptions{}, err
			}
		}
	}
	inc.emitDelta()
	return inc.finishBound(), nil
}

// handleSplice keeps frontier markers in place when an access is spliced at
// or before them (the marker itself is part of the displaced suffix).
func (inc *Incremental) handleSplice(tid, pos int) {
	for _, f := range inc.frontiers {
		if f.thread == tid && f.insertPos >= pos {
			f.insertPos++
		}
	}
}

// handleWhile is the encoder's While hook: it creates a frontier, unrolls
// it to the current bound and leaves the thread state on the loop's exit
// variables so downstream code is encoded exactly once.
func (inc *Incremental) handleWhile(ts *threadState, st cprog.While, shared map[string]bool) error {
	if ts.atomicID != 0 {
		return fmt.Errorf("%w: loop inside atomic section", ErrUnsupported)
	}
	e := inc.e
	c, err := e.evalCond(ts, st.Cond, shared)
	if err != nil {
		return err
	}
	e.guardCounter++
	e.bd.NameVar(c, guardName(ts.id, e.guardCounter))
	pos := e.insertAccess(ts.id, memmodel.Access{Marker: true}, nil)
	f := &frontier{
		id:        len(inc.frontiers),
		thread:    ts.id,
		stmt:      st,
		shared:    shared,
		insertPos: pos,
		curGuard:  ts.guard,
		curLocals: copyLocals(ts.locals),
		curAbs:    copyAbs(ts.abs),
		base:      copyLocals(ts.locals),
		nextCond:  c,
	}
	inc.frontiers = append(inc.frontiers, f)
	for len(f.iters) < inc.bound {
		if err := inc.extendFrontier(f); err != nil {
			return err
		}
	}
	// Exit variables over the union of the entry and first-iteration local
	// sets (stable: every iteration executes the same body, so the key set
	// does not change after iteration one). Sorted for determinism.
	keySet := map[string]bool{}
	for k := range f.base { //mapiter:ok builds a set
		keySet[k] = true
	}
	for k := range f.iters[0].locals { //mapiter:ok builds a set
		keySet[k] = true
	}
	f.exitKeys = make([]string, 0, len(keySet))
	for k := range keySet { //mapiter:ok keys sorted below
		f.exitKeys = append(f.exitKeys, k)
	}
	sort.Strings(f.exitKeys)
	f.exitVars = make(map[string]smt.BV, len(f.exitKeys))
	for _, k := range f.exitKeys {
		f.exitVars[k] = e.bd.NamedBV("exit_"+strconv.Itoa(f.thread)+"_"+strconv.Itoa(f.id)+"_"+k, e.opts.Width)
	}
	ts.locals = copyLocals(f.exitVars)
	if ts.abs != nil {
		// Exit values merge over a bound-dependent set of iterations; the
		// only bound-independent interval is Top.
		ts.abs = make(map[string]dataflow.Interval, len(f.exitKeys))
		for _, k := range f.exitKeys {
			ts.abs[k] = dataflow.Top(e.opts.Width)
		}
	}
	e.cursor[ts.id] = f.insertPos + 1 // downstream continues after the marker
	return nil
}

// extendFrontier unrolls one more iteration of f: the body (and the next
// loop condition's reads) splice in immediately before the frontier marker,
// which is where the fresh encoder would place them at the higher bound.
func (inc *Incremental) extendFrontier(f *frontier) error {
	e := inc.e
	ts := &threadState{
		id:     f.thread,
		guard:  e.bd.And(f.curGuard, f.nextCond),
		locals: copyLocals(f.curLocals),
		abs:    copyAbs(f.curAbs),
	}
	e.cursor[f.thread] = f.insertPos
	cond := f.nextCond
	if err := e.execStmts(ts, f.stmt.Body, f.shared); err != nil {
		return err
	}
	f.iters = append(f.iters, iteration{cond: cond, locals: ts.locals})
	f.curGuard = ts.guard
	f.curLocals = ts.locals
	f.curAbs = ts.abs
	next, err := e.evalCond(ts, f.stmt.Cond, f.shared)
	if err != nil {
		return err
	}
	e.guardCounter++
	e.bd.NameVar(next, guardName(f.thread, e.guardCounter))
	f.nextCond = next
	inc.dirty[f.thread] = true
	return nil
}

// emitDelta asserts every bound-independent fact that appeared since the
// last Extend: new program-order edges, new rf/fr/ws interference clauses,
// atomic-window exclusions and program assumes.
func (inc *Incremental) emitDelta() {
	e := inc.e
	bd := e.bd
	newEvents := e.events[inc.doneEvents:]

	// Reachability over all fixed edges emitted so far (grows monotonically
	// with the bound, exactly as the fresh encoder's does across bounds).
	reach := newReachability(bd.NumEvents())
	for _, ed := range inc.poEdges {
		reach.addEdge(ed[0], ed[1])
	}
	orderFixed := func(a, b smt.EventID) {
		bd.OrderFixed(a, b)
		reach.addEdge(a, b)
		inc.poEdges = append(inc.poEdges, [2]smt.EventID{a, b})
		e.stats.POEdges++
	}

	// Φ_po delta: recompute the model's preserved pairs over each changed
	// sequence and emit the not-yet-emitted ones. Pairs that drop out of
	// the transitive reduction at a higher bound were already asserted —
	// they are entailed by the new reduction, hence harmless.
	if inc.doneEvents == 0 {
		orderFixed(inc.create, inc.join)
	}
	threads := make([]int, 0, len(inc.dirty))
	for t := range inc.dirty { //mapiter:ok keys sorted below
		threads = append(threads, t)
	}
	sort.Ints(threads)
	for _, tid := range threads {
		for _, pr := range memmodel.OrderedPairs(e.opts.Model, e.seqs[tid]) {
			a := e.seqEvents[tid][pr[0]]
			b := e.seqEvents[tid][pr[1]]
			if a == nil || b == nil {
				continue // fence/marker endpoints carry no event
			}
			key := [2]smt.EventID{a.ID, b.ID}
			if inc.emittedPO[key] {
				continue
			}
			inc.emittedPO[key] = true
			orderFixed(a.ID, b.ID)
		}
	}
	inc.dirty = map[int]bool{}
	// Create/join edges for the new events.
	for i, ev := range newEvents {
		switch {
		case ev.Thread != 0:
			orderFixed(inc.create, ev.ID)
			orderFixed(ev.ID, inc.join)
		case inc.doneEvents+i < inc.initCount:
			orderFixed(ev.ID, inc.create)
		default:
			orderFixed(inc.join, ev.ID)
		}
	}

	// New writes per variable, in event-creation order.
	newWrites := map[string][]*Event{}
	for _, ev := range newEvents {
		if ev.IsWrite {
			newWrites[ev.Var] = append(newWrites[ev.Var], ev)
		}
	}
	wvars := make([]string, 0, len(newWrites))
	for v := range newWrites { //mapiter:ok keys sorted below
		wvars = append(wvars, v)
	}
	sort.Strings(wvars)

	// Φ_fr: existing rf candidates against the new writes (the new-write
	// side of the fr axiom; new candidates get the full loop below).
	for _, v := range wvars {
		for _, rs := range inc.readsByVar[v] {
			for ci, w := range rs.cands {
				nrf := bd.Not(rs.rfVars[ci])
				for _, k := range newWrites[v] {
					if k == w || reach.reaches(k.ID, w.ID) {
						continue
					}
					bd.AssertClause(nrf,
						bd.Not(bd.Before(w.ID, k.ID)),
						bd.Not(k.Guard),
						bd.Before(rs.ev.ID, k.ID))
				}
			}
		}
	}

	// Φ_ws delta: each new write against every earlier same-variable write
	// (and new-new pairs once, in order).
	for _, v := range wvars {
		base := len(inc.writesByVar[v])
		inc.writesByVar[v] = append(inc.writesByVar[v], newWrites[v]...)
		all := inc.writesByVar[v]
		for j := base; j < len(all); j++ {
			wj := all[j]
			for i := 0; i < j; i++ {
				wi := all[i]
				ws := bd.NamedBool(core.WSName(wi.Thread, wi.Index, wj.Thread, wj.Index))
				e.stats.WSVars++
				atom := bd.Before(wi.ID, wj.ID)
				bd.AssertClause(bd.Not(ws), atom)
				bd.AssertClause(ws, bd.Not(atom))
			}
		}
	}

	// Φ_rf/Φ_fr delta: old reads gain the new writes as candidates...
	for _, v := range wvars {
		for _, rs := range inc.readsByVar[v] {
			for _, w := range newWrites[v] {
				if reach.reaches(rs.ev.ID, w.ID) {
					continue
				}
				if e.flow != nil && e.valueInfeasible(rs.ev, w) {
					continue
				}
				inc.addRFCand(rs, w, reach)
			}
		}
	}
	// ...and new reads candidate every write seen so far.
	for _, ev := range newEvents {
		if ev.IsWrite {
			continue
		}
		rs := &readState{ev: ev}
		inc.readsByVar[ev.Var] = append(inc.readsByVar[ev.Var], rs)
		for _, w := range inc.writesByVar[ev.Var] {
			if reach.reaches(ev.ID, w.ID) {
				continue
			}
			if e.flow != nil && e.valueInfeasible(ev, w) {
				continue
			}
			inc.addRFCand(rs, w, reach)
		}
	}

	// Atomic-window exclusions: new windows against all events, old windows
	// against the new events.
	for wi := range e.windows {
		w := &e.windows[wi]
		evs := e.events
		if wi < inc.doneWindows {
			evs = newEvents
		}
		for _, ev := range evs {
			if ev.Thread == w.thread || !w.vars[ev.Var] {
				continue
			}
			bd.AssertClause(
				bd.Not(ev.Guard),
				bd.Before(ev.ID, w.first.ID),
				bd.Before(w.last.ID, ev.ID))
		}
	}
	inc.doneWindows = len(e.windows)

	// Program assumes are bound-independent (loop-body assumes keep their
	// iteration guards at every later bound): assert the new ones.
	for _, a := range e.assumes[inc.doneAssumes:] {
		bd.Assert(a)
	}
	inc.doneAssumes = len(e.assumes)
	inc.doneEvents = len(e.events)
}

// addRFCand emits the permanent clauses of one rf candidate: value
// equality, ordering, writer guard and the from-read axiom against every
// same-variable write known so far.
func (inc *Incremental) addRFCand(rs *readState, w *Event, reach *reachability) {
	e := inc.e
	bd := e.bd
	r := rs.ev
	rf := bd.NamedBool(core.RFName(r.Thread, r.Index, w.Thread, w.Index))
	e.stats.RFVars++
	nrf := bd.Not(rf)
	for bit := 0; bit < e.opts.Width; bit++ {
		rb, wb := r.Val.Bit(bit), w.Val.Bit(bit)
		bd.AssertClause(nrf, bd.Not(rb), wb)
		bd.AssertClause(nrf, rb, bd.Not(wb))
	}
	bd.AssertClause(nrf, bd.Before(w.ID, r.ID))
	bd.AssertClause(nrf, w.Guard)
	for _, k := range inc.writesByVar[r.Var] {
		if k == w || reach.reaches(k.ID, w.ID) {
			continue
		}
		bd.AssertClause(nrf,
			bd.Not(bd.Before(w.ID, k.ID)),
			bd.Not(k.Guard),
			bd.Before(r.ID, k.ID))
	}
	rs.cands = append(rs.cands, w)
	rs.rfVars = append(rs.rfVars, rf)
}

// finishBound emits the bound-guarded layer — Φ_rf_some, frontier exits,
// exit-variable links and the error condition — and refreshes the VC stats.
func (inc *Incremental) finishBound() BoundAssumptions {
	e := inc.e
	bd := e.bd
	k := inc.bound
	act := bd.NamedBool("act_" + strconv.Itoa(k))
	errv := bd.NamedBool("err_" + strconv.Itoa(k))
	nact := bd.Not(act)

	// Φ_rf_some under act_k: a read's candidate set grows with the bound,
	// so the clause cannot be asserted permanently — each bound gets its
	// own instance over the candidates visible at that bound.
	rvars := make([]string, 0, len(inc.readsByVar))
	for v := range inc.readsByVar { //mapiter:ok keys sorted below
		rvars = append(rvars, v)
	}
	sort.Strings(rvars)
	for _, v := range rvars {
		for _, rs := range inc.readsByVar[v] {
			terms := make([]smt.Bool, 0, len(rs.rfVars)+2)
			terms = append(terms, nact, bd.Not(rs.ev.Guard))
			terms = append(terms, rs.rfVars...)
			bd.AssertClause(terms...)
		}
	}

	// Frontier exits and exit-variable links.
	errTerms := make([]smt.Bool, 0, len(e.violations)+len(inc.frontiers)+1)
	errTerms = append(errTerms, bd.Not(errv))
	errTerms = append(errTerms, e.violations...)
	for _, f := range inc.frontiers {
		if inc.mode == cprog.UnwindAssert {
			// Needing another iteration is itself a violation at this bound.
			errTerms = append(errTerms, bd.And(f.curGuard, f.nextCond))
		} else {
			// assume(!cond) at the frontier, active only at this bound.
			bd.AssertClause(nact, bd.Not(f.curGuard), bd.Not(f.nextCond))
		}
		m := inc.mergedExit(f)
		for _, key := range f.exitKeys {
			x := f.exitVars[key]
			mv := m[key]
			for bit := 0; bit < e.opts.Width; bit++ {
				xb, mb := x.Bit(bit), mv.Bit(bit)
				bd.AssertClause(nact, bd.Not(xb), mb)
				bd.AssertClause(nact, xb, bd.Not(mb))
			}
		}
	}
	bd.AssertClause(errTerms...)

	e.stats.Threads = len(e.seqs)
	e.stats.Events = len(e.events)
	e.stats.Asserts = len(e.violations)
	e.stats.Assumes = len(e.assumes)
	e.stats.Clauses = bd.NumClauses()
	e.stats.Variables = bd.NumVars()
	inc.vc.Events = e.events
	inc.vc.Stats = e.stats
	inc.vc.AssertThreads = e.assertThreads
	return BoundAssumptions{Bound: k, Act: act, Err: errv}
}

// mergedExit rebuilds the fresh encoder's nested-if merge of the loop's
// locals at the current bound: merge(c_1, merge(c_2, ... merge(c_k, L_k,
// L_{k-1}) ...), L_0), innermost first — gate for gate the merge the fresh
// walk performs while returning out of the unrolled ifs.
func (inc *Incremental) mergedExit(f *frontier) map[string]smt.BV {
	m := f.iters[len(f.iters)-1].locals
	for i := len(f.iters) - 1; i >= 0; i-- {
		prev := f.base
		if i > 0 {
			prev = f.iters[i-1].locals
		}
		m = mergeLocals(inc.e.bd, f.iters[i].cond, m, prev, inc.e.opts.Width)
	}
	return m
}
