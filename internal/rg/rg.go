// Package rg is a rely-guarantee thread-modular proof engine over the cprog
// IR: it walks each thread with a strongest-postcondition proof outline in a
// disjunctive interval domain, stabilizes every program point against the
// interfering (rely) transitions of the other threads, and iterates the
// per-thread outlines to a joint fixpoint. Guards on the rely transitions
// are memory-model aware (SC: stabilized writer precondition; TSO: facts
// from the writer's earlier writes; PSO: only fence-ordered or same-variable
// earlier writes), so the engine proves fenced message-passing protocols
// exactly under the models where they are safe.
//
// A successful fixpoint that discharges every assertion is an unbounded
// proof: it holds at every unroll bound, so the BMC sweep can be skipped
// entirely. When the proof fails, the stabilized per-variable value ranges
// are still sound for every read at every bound and are injected into the
// encoder as assumptions (see encode.Options.RGRanges).
package rg

import (
	"fmt"
	"sort"

	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/memmodel"
	"zpre/internal/relational"
)

// Options configures a proof attempt.
type Options struct {
	// Model is the memory model to prove under.
	Model memmodel.Model
	// Width is the bit width of program integers (default 8).
	Width int
	// MaxDisjuncts caps the state-set size before hull collapse (default 384).
	MaxDisjuncts int
	// MaxRounds caps outer stabilization rounds (default 24).
	MaxRounds int
	// Budget caps total rely-transition applications (default 3e6); an
	// exhausted budget bails out unproved.
	Budget int
	// Domain selects the abstract domain: DomainInterval (default) or
	// DomainDBM, which layers the relational closed-form exit bounds and
	// difference invariants of internal/relational on top of the interval
	// walk.
	Domain string
	// Prefilter skips proof attempts that cannot possibly succeed: programs
	// with assertions outside the domain's linear fragment return
	// immediately, and an assertion already refuted against the strongest
	// (round-1, interference-free) states aborts before the remaining
	// stabilization rounds. Never flips a verdict — a skipped attempt
	// reports unproved, exactly what the full run would have concluded.
	Prefilter bool
}

func (o Options) withDefaults() Options {
	if o.Width == 0 {
		o.Width = 8
	}
	if o.MaxDisjuncts == 0 {
		o.MaxDisjuncts = 384
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 24
	}
	if o.Budget == 0 {
		o.Budget = 3_000_000
	}
	if o.Domain == "" {
		o.Domain = DomainInterval
	}
	return o
}

// Result is the outcome of a proof attempt.
type Result struct {
	// Proved: every assertion is discharged at the interference fixpoint;
	// the program is safe at every unroll bound under the model.
	Proved bool
	// Bailed: the fixpoint did not converge within budget; no invariants
	// are available.
	Bailed bool
	// Asserts is the number of assertion sites checked.
	Asserts int
	// Unproved lists the assertion sites the outline could not discharge.
	Unproved []string
	// StabilizeIters is the number of outer interference-stabilization
	// rounds until the fixpoint (or the bail-out round).
	StabilizeIters int
	// SkippedPrefilter: the prefilter aborted the attempt early (see
	// Options.Prefilter). Implies !Proved and nil Ranges.
	SkippedPrefilter bool
	// Ranges maps each shared variable to a sound value range covering its
	// initial value and every write image under the model — valid for every
	// read event at every unroll bound. Nil when Bailed.
	Ranges map[string]dataflow.Interval

	outline *outlineData
}

// engine carries one proof attempt.
type engine struct {
	pi        *progInfo
	prog      *cprog.Program
	model     memmodel.Model
	cap       int
	maxRounds int
	widenLoop int
	widenRnd  int
	budget    int
	bailed    bool
	rel       *relational.Facts // non-nil in the dbm domain

	scopes    []*scope
	postScope *scope
	spans     map[string]int // Lock-stmt path -> span end index (composited CS)

	prevRange []iv
	curRange  []iv

	asserts     map[string]bool
	assertOrder []string

	outlines map[string][]outlineLine // scope name -> final-round outline
	scOrder  []string

	seen envSet // stabilize's duplicate index, reused across calls
}

func (e *engine) spend() bool {
	e.budget--
	if e.budget < 0 {
		e.bailed = true
	}
	return e.bailed
}

func (e *engine) noteAssert(key string, proved bool) {
	if old, ok := e.asserts[key]; ok {
		e.asserts[key] = old && proved
		return
	}
	e.asserts[key] = proved
	e.assertOrder = append(e.assertOrder, key)
}

// Prove runs the rely-guarantee fixpoint on p under the given model.
func Prove(p *cprog.Program, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rg: %w", err)
	}
	opts = opts.withDefaults()
	if opts.Prefilter && !assertsExpressible(p) {
		// No domain run can discharge a non-linear assertion; skip the
		// rounds entirely and report the unproved outcome they would reach.
		return &Result{SkippedPrefilter: true}, nil
	}
	eng := &engine{
		pi:        buildProgInfo(p, opts.Width),
		prog:      p,
		model:     opts.Model,
		cap:       opts.MaxDisjuncts,
		maxRounds: opts.MaxRounds,
		widenLoop: 3,
		widenRnd:  8,
		budget:    opts.Budget,
		spans:     map[string]int{},
		outlines:  map[string][]outlineLine{},
	}
	for t, th := range p.Threads {
		eng.scopes = append(eng.scopes, buildScope(eng.pi, th.Name, t, th.Body))
		eng.scOrder = append(eng.scOrder, th.Name)
	}
	eng.postScope = buildScope(eng.pi, "post", -1, p.Post)
	eng.scOrder = append(eng.scOrder, "post")
	eng.detectSpans()
	if opts.Domain == DomainDBM {
		eng.rel = relational.Analyze(p, opts.Width)
	}

	nT := len(p.Threads)
	prevTrans := make([][]*transition, nT)
	res := &Result{}
	for round := 1; round <= eng.maxRounds; round++ {
		res.StabilizeIters = round
		eng.resetRound()
		newTrans := make([][]*transition, nT)
		exits := make([]stateSet, nT)
		for t := 0; t < nT; t++ {
			w := eng.newWalker(eng.scopes[t], relyFor(prevTrans, t), true)
			S := w.walkStmts(eng.scopes[t].body, stateSet{newInitEnv(eng.pi, eng.scopes[t])}, fmt.Sprintf("t%d", t))
			exits[t] = projectShared(S, eng.pi)
			newTrans[t] = w.ordered()
		}
		if eng.bailed {
			res.Bailed = true
			break
		}
		if round > eng.widenRnd {
			widenTransitions(prevTrans, newTrans, eng)
		}
		stable := transSetsEqual(prevTrans, newTrans)
		if opts.Prefilter && round == 1 && !stable {
			// Speculative check against the strongest (round-1,
			// interference-free) states: fixpoint rounds only grow the state
			// sets, so an assertion refuted here stays refuted at the
			// fixpoint and the remaining rounds are pure waste. A pass says
			// nothing (wider states may still fail), so only a definite
			// failure aborts.
			eng.checkPost(exits, make([][]*transition, nT))
			for _, k := range eng.assertOrder {
				if !eng.asserts[k] {
					res.Unproved = append(res.Unproved, k)
				}
			}
			if len(res.Unproved) > 0 && !eng.bailed {
				sort.Strings(res.Unproved)
				res.SkippedPrefilter = true
				res.Asserts = len(eng.assertOrder)
				return res, nil
			}
			res.Unproved = nil
		}
		prevTrans = newTrans
		eng.prevRange = eng.curRange
		if !stable {
			continue
		}
		// Fixpoint: the outlines of this round were computed against the
		// final transition set, so their assertion checks are valid, and
		// the post block can be analysed against the closed exit states.
		eng.checkPost(exits, prevTrans)
		if eng.bailed {
			res.Bailed = true
			break
		}
		res.Asserts = len(eng.assertOrder)
		for _, k := range eng.assertOrder {
			if !eng.asserts[k] {
				res.Unproved = append(res.Unproved, k)
			}
		}
		sort.Strings(res.Unproved)
		res.Proved = len(res.Unproved) == 0
		res.Ranges = make(map[string]dataflow.Interval, eng.pi.nShared)
		for v, name := range eng.pi.shared {
			r := eng.curRange[v]
			if eng.rel != nil {
				if m := dataflow.Meet(r, eng.rel.Global(name)); !m.IsEmpty() {
					r = m
				}
			}
			res.Ranges[name] = r
		}
		res.outline = eng.buildOutline(prevTrans, res)
		return res, nil
	}
	// No fixpoint within budget: nothing can be soundly reported.
	res.Bailed = true
	res.Asserts = len(eng.assertOrder)
	return res, nil
}

func (e *engine) resetRound() {
	e.curRange = make([]iv, e.pi.nShared)
	for v := range e.curRange {
		e.curRange[v] = dataflow.FromConst(e.pi.initVals[v], e.pi.width)
	}
	if e.prevRange == nil {
		e.prevRange = append([]iv(nil), e.curRange...)
	}
	e.asserts = map[string]bool{}
	e.assertOrder = nil
	for k := range e.outlines { //mapiter:ok cleared wholesale, order irrelevant
		delete(e.outlines, k)
	}
}

func (e *engine) newWalker(sc *scope, rely []*transition, record bool) *walker {
	w := &walker{
		eng:      e,
		sc:       sc,
		rely:     rely,
		otherImg: make([]iv, e.pi.nShared),
		acc:      map[string]*transition{},
		record:   record,
	}
	for v := range w.otherImg {
		w.otherImg[v] = dataflow.Empty()
	}
	for _, t := range rely {
		for _, wr := range t.writes {
			w.otherImg[wr.v] = dataflow.Join(w.otherImg[wr.v], wr.img)
		}
	}
	return w
}

func (w *walker) ordered() []*transition {
	out := make([]*transition, 0, len(w.accOrder))
	for _, k := range w.accOrder {
		out = append(out, w.acc[k])
	}
	return out
}

func relyFor(trans [][]*transition, self int) []*transition {
	var out []*transition
	for t, ts := range trans {
		if t == self {
			continue
		}
		out = append(out, ts...)
	}
	return out
}

func projectShared(S stateSet, pi *progInfo) stateSet {
	out := make(stateSet, 0, len(S))
	for _, e := range S {
		c := newEnv(pi.nShared, pi.nShared)
		copy(c.vals, e.vals)
		out = append(out, c)
	}
	return normalize(out, len(out))
}

// checkPost analyses the post block: the final memory state is consistent
// with every thread's exit view closed under the remaining interference, so
// the post pre-state is the meet-product of those closures.
func (e *engine) checkPost(exits []stateSet, trans [][]*transition) {
	var S stateSet
	if len(exits) == 0 {
		S = stateSet{newInitEnv(e.pi, e.postScope)}
	} else {
		for t, ex := range exits {
			w := e.newWalker(e.scopes[t], relyFor(trans, t), false)
			closed := w.stabilize(ex)
			if t == 0 {
				S = closed
				continue
			}
			S = meetProduct(S, closed, e.cap)
		}
		if e.rel != nil {
			S = e.meetExits(S)
		}
		S = extendToScope(S, e.pi, e.postScope)
	}
	w := e.newWalker(e.postScope, nil, false)
	if e.rel != nil {
		w.zone = e.buildPostZone(S)
	}
	w.walkStmts(e.postScope.body, S, "post")
}

// meetProduct intersects two shared-state views pairwise. Each meet is
// built in scratch space and copied out only when non-empty and new, so
// normalize sorts distinct disjuncts only.
func meetProduct(a, b stateSet, cap int) stateSet {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var out stateSet
	var seen envSet
	tmp := newEnv(len(a[0].vals), len(a[0].own))
	for _, x := range a {
		for _, y := range b {
			tmp.copyFrom(x)
			empty := false
			for v := range tmp.vals {
				m := dataflow.Meet(tmp.vals[v], y.vals[v])
				if m.IsEmpty() {
					empty = true
					break
				}
				tmp.vals[v] = m
			}
			if empty {
				continue
			}
			if c := seen.addCopy(tmp); c != nil {
				out = append(out, c)
			}
		}
	}
	return normalize(out, cap)
}

func extendToScope(S stateSet, pi *progInfo, sc *scope) stateSet {
	out := make(stateSet, 0, len(S))
	for _, e := range S {
		c := newEnv(sc.nVars, pi.nShared)
		copy(c.vals, e.vals[:pi.nShared])
		for i := pi.nShared; i < sc.nVars; i++ {
			c.vals[i] = dataflow.FromConst(0, pi.width)
		}
		out = append(out, c)
	}
	return out
}

// widenTransitions forces convergence after widenRnd rounds: images widen
// upward and guard entries that changed are dropped (weaker is sound).
func widenTransitions(prev, next [][]*transition, e *engine) {
	for t := range next {
		prevByKey := map[string]*transition{}
		for _, pt := range prev[t] {
			prevByKey[pt.key] = pt
		}
		for _, nt := range next[t] {
			pt, ok := prevByKey[nt.key]
			if !ok {
				continue
			}
			for i := range nt.writes {
				for _, pw := range pt.writes {
					if pw.v == nt.writes[i].v {
						nt.writes[i].img = dataflow.Widen(pw.img, dataflow.Join(pw.img, nt.writes[i].img), e.pi.width)
						break
					}
				}
			}
			var guard []guardEnt
			for _, ng := range nt.guard {
				for _, pg := range pt.guard {
					if pg.v == ng.v && pg.rng == ng.rng {
						guard = append(guard, ng)
						break
					}
				}
			}
			nt.guard = guard
		}
	}
}

func transSetsEqual(a, b [][]*transition) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if len(a[t]) != len(b[t]) {
			return false
		}
		for i := range a[t] {
			if !transEqual(a[t][i], b[t][i]) {
				return false
			}
		}
	}
	return true
}

func transEqual(a, b *transition) bool {
	if a.key != b.key || a.composite != b.composite ||
		len(a.held) != len(b.held) || len(a.guard) != len(b.guard) || len(a.writes) != len(b.writes) {
		return false
	}
	for i := range a.held {
		if a.held[i] != b.held[i] {
			return false
		}
	}
	for i := range a.guard {
		if a.guard[i] != b.guard[i] {
			return false
		}
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			return false
		}
	}
	return true
}

// detectSpans finds critical sections that can be treated as single
// composite transitions: every shared variable written in the span (other
// than lock variables) is only ever accessed, program-wide, while the same
// mutex is held, so no other thread can observe an intermediate state.
func (e *engine) detectSpans() {
	lockVars := map[string]bool{}
	dirty := map[string]bool{} // lock var read as a plain value somewhere
	for _, sc := range append(append([]*scope{}, e.scopes...), e.postScope) {
		collectLockVars(sc.body, lockVars)
	}
	for _, sc := range append(append([]*scope{}, e.scopes...), e.postScope) {
		collectRefs(sc.body, lockVars, dirty)
	}
	// Per shared var: the set of mutexes held at *every* access in thread
	// bodies (nil until first access).
	cand := make([]map[string]bool, e.pi.nShared)
	for _, sc := range e.scopes {
		e.collectAccessLocks(sc.body, nil, cand)
	}
	for t, sc := range e.scopes {
		e.scanSpans(sc.body, fmt.Sprintf("t%d", t), cand, lockVars, dirty)
	}
}

func collectLockVars(stmts []cprog.Stmt, out map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case cprog.Lock:
			out[st.Mutex] = true
		case cprog.Unlock:
			out[st.Mutex] = true
		case cprog.If:
			collectLockVars(st.Then, out)
			collectLockVars(st.Else, out)
		case cprog.While:
			collectLockVars(st.Body, out)
		case cprog.Atomic:
			collectLockVars(st.Body, out)
		}
	}
}

func collectRefs(stmts []cprog.Stmt, lockVars, dirty map[string]bool) {
	var expr func(cprog.Expr)
	expr = func(x cprog.Expr) {
		switch e := x.(type) {
		case cprog.Ref:
			if lockVars[e.Name] {
				dirty[e.Name] = true
			}
		case cprog.BinOp:
			expr(e.L)
			expr(e.R)
		case cprog.UnOp:
			expr(e.X)
		}
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case cprog.Assign:
			expr(st.Rhs)
		case cprog.Local:
			if st.Init != nil {
				expr(st.Init)
			}
		case cprog.Assume:
			expr(st.Cond)
		case cprog.Assert:
			expr(st.Cond)
		case cprog.If:
			expr(st.Cond)
			collectRefs(st.Then, lockVars, dirty)
			collectRefs(st.Else, lockVars, dirty)
		case cprog.While:
			expr(st.Cond)
			collectRefs(st.Body, lockVars, dirty)
		case cprog.Atomic:
			collectRefs(st.Body, lockVars, dirty)
		}
	}
}

// collectAccessLocks intersects, for every shared variable, the statically
// held locks over all of its accesses in thread bodies.
func (e *engine) collectAccessLocks(stmts []cprog.Stmt, held []string, cand []map[string]bool) []string {
	access := func(name string) {
		v, ok := e.pi.sharedIdx[name]
		if !ok {
			return
		}
		if cand[v] == nil {
			cand[v] = map[string]bool{}
			for _, m := range held {
				cand[v][m] = true
			}
			return
		}
		for m := range cand[v] { //mapiter:ok intersection, result order-insensitive
			stillHeld := false
			for _, h := range held {
				if h == m {
					stillHeld = true
					break
				}
			}
			if !stillHeld {
				delete(cand[v], m)
			}
		}
	}
	var expr func(cprog.Expr)
	expr = func(x cprog.Expr) {
		switch ex := x.(type) {
		case cprog.Ref:
			access(ex.Name)
		case cprog.BinOp:
			expr(ex.L)
			expr(ex.R)
		case cprog.UnOp:
			expr(ex.X)
		}
	}
	for _, s := range stmts {
		switch st := s.(type) {
		case cprog.Assign:
			expr(st.Rhs)
			access(st.Lhs)
		case cprog.Local:
			if st.Init != nil {
				expr(st.Init)
			}
		case cprog.Havoc:
			access(st.Name)
		case cprog.Assume:
			expr(st.Cond)
		case cprog.Assert:
			expr(st.Cond)
		case cprog.If:
			expr(st.Cond)
			e.collectAccessLocks(st.Then, held, cand)
			e.collectAccessLocks(st.Else, held, cand)
		case cprog.While:
			expr(st.Cond)
			e.collectAccessLocks(st.Body, held, cand)
		case cprog.Atomic:
			held = e.collectAccessLocks(st.Body, held, cand)
		case cprog.Lock:
			access(st.Mutex)
			held = heldAdd(held, st.Mutex)
		case cprog.Unlock:
			access(st.Mutex)
			held = heldRemove(held, st.Mutex)
		}
	}
	return held
}

func (e *engine) scanSpans(stmts []cprog.Stmt, path string, cand []map[string]bool, lockVars, dirty map[string]bool) {
	for i, s := range stmts {
		p := fmt.Sprintf("%s/%d", path, i)
		switch st := s.(type) {
		case cprog.Lock:
			end := -1
			for j := i + 1; j < len(stmts); j++ {
				if ul, ok := stmts[j].(cprog.Unlock); ok && ul.Mutex == st.Mutex {
					end = j
					break
				}
			}
			if end < 0 || dirty[st.Mutex] {
				continue
			}
			written := map[int]bool{}
			mayWritesShared(stmts[i:end+1], e.pi, written)
			ok := true
			for v := range written { //mapiter:ok pure predicate check
				if lockVars[e.pi.shared[v]] {
					continue
				}
				if cand[v] == nil || !cand[v][st.Mutex] {
					ok = false
					break
				}
			}
			if ok {
				e.spans[p] = end
			}
		case cprog.If:
			e.scanSpans(st.Then, p+".t", cand, lockVars, dirty)
			e.scanSpans(st.Else, p+".e", cand, lockVars, dirty)
		case cprog.While:
			e.scanSpans(st.Body, p+".b", cand, lockVars, dirty)
		case cprog.Atomic:
			// atomic bodies are always composite; no span needed
		}
	}
}

func mayWritesShared(stmts []cprog.Stmt, pi *progInfo, out map[int]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case cprog.Assign:
			if v, ok := pi.sharedIdx[st.Lhs]; ok {
				out[v] = true
			}
		case cprog.Havoc:
			if v, ok := pi.sharedIdx[st.Name]; ok {
				out[v] = true
			}
		case cprog.Lock:
			if v, ok := pi.sharedIdx[st.Mutex]; ok {
				out[v] = true
			}
		case cprog.Unlock:
			if v, ok := pi.sharedIdx[st.Mutex]; ok {
				out[v] = true
			}
		case cprog.If:
			mayWritesShared(st.Then, pi, out)
			mayWritesShared(st.Else, pi, out)
		case cprog.While:
			mayWritesShared(st.Body, pi, out)
		case cprog.Atomic:
			mayWritesShared(st.Body, pi, out)
		}
	}
}
