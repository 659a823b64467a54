package rg

import (
	"fmt"
	"sort"

	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/memmodel"
	"zpre/internal/relational"
)

// guardEnt constrains the memory value of a shared variable at the instant a
// rely transition commits.
type guardEnt struct {
	v   int
	rng iv
}

// write is one variable image of a transition.
type write struct {
	v   int
	img iv
}

// transition is one interfering effect another thread can apply to shared
// memory: the writes of a single assignment, or the combined effect of an
// atomic block / consistently-locked critical section (composite). held
// lists the locks the writer holds when the transition commits — a reader
// holding one of them can never observe it.
type transition struct {
	key       string
	thread    int
	held      []string
	guard     []guardEnt
	writes    []write
	composite bool
}

// collector accumulates the writes of the enclosing composite span.
type collector struct {
	img   map[int]iv
	order []int
}

func newCollector() *collector { return &collector{img: map[int]iv{}} }

func (c *collector) add(v int, img iv) {
	if old, ok := c.img[v]; ok {
		c.img[v] = dataflow.Join(old, img)
		return
	}
	c.img[v] = img
	c.order = append(c.order, v)
}

// walker runs one scope (thread or post block) through the proof-outline
// walk for one outer round.
type walker struct {
	eng      *engine
	sc       *scope
	rely     []*transition
	otherImg []iv // per shared var: join of other threads' write images (Empty: none)
	held     []string
	acc      map[string]*transition
	accOrder []string
	record   bool
	compDep  int
	atomDep  int
	coll     *collector
	tmp      *env // scratch for rely images (see stabilize)
	// zone tracks relational facts through the post-block walk in the dbm
	// domain (nil otherwise): it holds difference bounds like x − y ≤ c
	// that survive where the per-variable intervals above lose them.
	zone *relational.DBM
}

func heldAdd(held []string, m string) []string {
	for _, h := range held {
		if h == m {
			return held
		}
	}
	out := append(append([]string(nil), held...), m)
	sort.Strings(out)
	return out
}

func heldRemove(held []string, m string) []string {
	var out []string
	for _, h := range held {
		if h != m {
			out = append(out, h)
		}
	}
	return out
}

func heldIntersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

func heldConflict(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// applyTrans writes the image of e under a rely transition into dst (an
// environment of the same shape) and reports false, leaving dst undefined,
// when the guard rules the transition out. The guard meet is sound: the
// closure also contains the fully-evolved states in which the transition
// really fires.
func applyTrans(dst *env, t *transition, e *env, nShared int) bool {
	for _, g := range t.guard {
		if dataflow.Meet(e.vals[g.v], g.rng).IsEmpty() {
			return false
		}
	}
	dst.copyFrom(e)
	for _, g := range t.guard {
		dst.setVal(g.v, dataflow.Meet(dst.vals[g.v], g.rng), nShared)
	}
	for _, w := range t.writes {
		dst.vals[w.v] = w.img
		dst.ownSet[w.v] = false
	}
	return true
}

// stabilize closes a state set under the applicable rely transitions
// (reflexive-transitive interference closure). Overflowing the disjunct cap
// degrades to a single-hull closure with widening. Images are built in the
// walker's scratch environment and copied out only when novel.
func (w *walker) stabilize(S stateSet) stateSet {
	if len(w.rely) == 0 || len(S) == 0 || w.eng.bailed {
		return S
	}
	nShared := w.eng.pi.nShared
	if w.tmp == nil || len(w.tmp.vals) != len(S[0].vals) {
		w.tmp = newEnv(len(S[0].vals), nShared)
	}
	tmp := w.tmp
	seen := &w.eng.seen
	seen.reset()
	for _, e := range S {
		seen.add(e)
	}
	out := append(stateSet{}, S...)
	overflow := false
	for i := 0; i < len(out) && !overflow; i++ {
		for _, t := range w.rely {
			if heldConflict(t.held, w.held) {
				continue
			}
			if w.eng.spend() {
				return out
			}
			if !applyTrans(tmp, t, out[i], nShared) {
				continue
			}
			c := seen.addCopy(tmp)
			if c == nil {
				continue
			}
			out = append(out, c)
			if len(out) > w.eng.cap {
				overflow = true
				break
			}
		}
	}
	if !overflow {
		return normalize(out, w.eng.cap)
	}
	// Hull closure: join every applicable image into a single environment
	// until stable, widening if the chain is long.
	h := hullEnv(out)
	prev := h.clone()
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for _, t := range w.rely {
			if heldConflict(t.held, w.held) {
				continue
			}
			if w.eng.spend() {
				return stateSet{h}
			}
			if !applyTrans(tmp, t, h, nShared) {
				continue
			}
			for v := range h.vals {
				j := dataflow.Join(h.vals[v], tmp.vals[v])
				if j != h.vals[v] {
					h.vals[v] = j
					changed = true
				}
			}
			for v := range h.ownSet {
				if h.ownSet[v] && !tmp.ownSet[v] {
					h.ownSet[v] = false
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if sweep >= 8 {
			for v := range h.vals {
				h.vals[v] = dataflow.Widen(prev.vals[v], h.vals[v], w.eng.pi.width)
			}
		}
		prev.copyFrom(h)
	}
	return stateSet{h}
}

// guardFor derives the per-model guard from the (stabilized) writer state at
// the commit point. exclude lists composite-written variables whose
// pre-state is not valid at the effective commit instant; selfVar is the
// variable written by a single assignment (same-variable write-write order
// holds even under PSO).
func (w *walker) guardFor(set stateSet, exclude []int, selfVar int) []guardEnt {
	if len(set) == 0 {
		return nil
	}
	pi := w.eng.pi
	var out []guardEnt
	for v := 0; v < pi.nShared; v++ {
		skip := false
		for _, x := range exclude {
			if x == v {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		var g iv
		switch w.eng.model {
		case memmodel.SC:
			// The stabilized view hull covers every memory evolution up to
			// the commit, and under SC the view is the memory.
			g = hullOf(set, v)
		default:
			// TSO/PSO: only facts established by the writer's own earlier
			// writes survive reordering — W->W order is preserved under TSO,
			// and under PSO only across a fence or to the same variable.
			ok := true
			for _, e := range set {
				if !e.ownSet[v] || (w.eng.model == memmodel.PSO && !e.fenced[v] && v != selfVar) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			g = set[0].own[v]
			for _, e := range set[1:] {
				g = dataflow.Join(g, e.own[v])
			}
			// Another thread may have overwritten our value by commit time.
			if !w.otherImg[v].IsEmpty() {
				g = dataflow.Join(g, w.otherImg[v])
			}
		}
		if !g.IsEmpty() && !g.IsTop(pi.width) {
			out = append(out, guardEnt{v: v, rng: g})
		}
	}
	return out
}

func (w *walker) recordTrans(key string, held []string, guard []guardEnt, writes []write, composite bool) {
	t := &transition{
		key:       key,
		thread:    w.sc.thread,
		held:      append([]string(nil), held...),
		guard:     guard,
		writes:    writes,
		composite: composite,
	}
	if ex, ok := w.acc[key]; ok {
		w.mergeTrans(ex, t)
		return
	}
	w.acc[key] = t
	w.accOrder = append(w.accOrder, key)
}

// mergeTrans joins two visits of the same program point (loop iterations)
// into one sound transition: guards weaken, images widen, held intersects.
func (w *walker) mergeTrans(ex, nw *transition) {
	ex.held = heldIntersect(ex.held, nw.held)
	var guard []guardEnt
	for _, a := range ex.guard {
		for _, b := range nw.guard {
			if a.v == b.v {
				guard = append(guard, guardEnt{v: a.v, rng: dataflow.Join(a.rng, b.rng)})
				break
			}
		}
	}
	ex.guard = guard
	for _, b := range nw.writes {
		found := false
		for i, a := range ex.writes {
			if a.v == b.v {
				ex.writes[i].img = dataflow.Join(a.img, b.img)
				found = true
				break
			}
		}
		if !found {
			// Written by this visit only: the merged transition may leave
			// the old value, approximated by the variable's global range.
			ex.writes = append(ex.writes, write{v: b.v, img: dataflow.Join(b.img, w.eng.prevRange[b.v])})
		}
	}
	for i, a := range ex.writes {
		inNew := false
		for _, b := range nw.writes {
			if a.v == b.v {
				inNew = true
				break
			}
		}
		if !inNew {
			ex.writes[i].img = dataflow.Join(a.img, w.eng.prevRange[a.v])
		}
	}
	ex.composite = ex.composite || nw.composite
}

// walkStmts runs a statement list, stabilizing against interference before
// every statement (outside atomic bodies) and folding composited critical
// sections into single transitions.
func (w *walker) walkStmts(stmts []cprog.Stmt, S stateSet, path string) stateSet {
	for i := 0; i < len(stmts); i++ {
		p := fmt.Sprintf("%s/%d", path, i)
		if end, ok := w.eng.spans[p]; ok && w.compDep == 0 && w.record {
			S = w.runComposite(stmts, i, end, S, path, false, p)
			i = end
			continue
		}
		S = w.execStmt(stmts[i], S, p)
	}
	return S
}

// runComposite walks span [from..to] of list (a locked critical section, or
// an atomic body when atomicBody) collecting its writes into one composite
// transition recorded at key.
func (w *walker) runComposite(list []cprog.Stmt, from, to int, S stateSet, path string, atomicBody bool, key string) stateSet {
	outer := w.compDep == 0
	w.compDep++
	if outer {
		w.coll = newCollector()
	}
	if atomicBody {
		w.atomDep++
	}
	heldCommit := w.held
	if lk, ok := list[from].(cprog.Lock); ok {
		heldCommit = heldAdd(w.held, lk.Mutex)
	}
	for i := from; i <= to; i++ {
		S = w.execStmt(list[i], S, fmt.Sprintf("%s/%d", path, i))
	}
	if atomicBody {
		w.atomDep--
	}
	w.compDep--
	if !outer {
		return S
	}
	coll := w.coll
	w.coll = nil
	if len(S) == 0 || !w.record {
		return S
	}
	// Effective commit point: the last write of the span. Facts about
	// unwritten variables must cover interference over the whole span, so
	// the guard comes from the interference-closed exit state.
	Sg := w.stabilize(S)
	guard := w.guardFor(Sg, coll.order, -1)
	must := map[int]bool{}
	mustWrites(list[from:to+1], w.eng.pi, w.sc, must)
	var writes []write
	for _, v := range coll.order {
		img := coll.img[v]
		if !must[v] {
			img = dataflow.Join(img, w.eng.prevRange[v])
		}
		writes = append(writes, write{v: v, img: img})
	}
	if len(writes) > 0 {
		w.recordTrans(key, heldCommit, guard, writes, true)
	}
	return S
}

// mustWrites adds the shared variables written on every path of the list.
func mustWrites(stmts []cprog.Stmt, pi *progInfo, sc *scope, out map[int]bool) {
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
			a, b := map[int]bool{}, map[int]bool{}
			mustWrites(st.Then, pi, sc, a)
			mustWrites(st.Else, pi, sc, b)
			for v := range a { //mapiter:ok set intersection into sorted-insensitive set
				if b[v] {
					out[v] = true
				}
			}
		case cprog.Atomic:
			mustWrites(st.Body, pi, sc, out)
		}
	}
}

func (w *walker) execStmt(s cprog.Stmt, S stateSet, p string) stateSet {
	if len(S) == 0 {
		if _, ok := s.(cprog.Assert); ok {
			w.eng.noteAssert(w.sc.name+":"+p, true) // unreachable: vacuous
		}
		return S
	}
	if w.atomDep == 0 {
		S = w.stabilize(S)
	}
	w.eng.noteOutline(w.sc, p, s, S)
	pi := w.eng.pi
	switch st := s.(type) {
	case cprog.Local:
		v := w.sc.idx[st.Name]
		for _, e := range S {
			if st.Init != nil {
				e.vals[v] = evalExpr(st.Init, e, w.sc, pi.width)
			} else {
				e.vals[v] = dataflow.FromConst(0, pi.width)
			}
		}
		w.zoneAssign(v, st.Init, S)
	case cprog.Assign:
		v := w.sc.idx[st.Lhs]
		if v < pi.nShared {
			S = w.execSharedWrite(v, S, p, w.held, func(e *env) iv {
				return evalExpr(st.Rhs, e, w.sc, pi.width)
			})
		} else {
			for _, e := range S {
				e.vals[v] = evalExpr(st.Rhs, e, w.sc, pi.width)
			}
		}
		w.zoneAssign(v, st.Rhs, S)
	case cprog.Havoc:
		v := w.sc.idx[st.Name]
		if v < pi.nShared {
			S = w.execSharedWrite(v, S, p, w.held, func(*env) iv {
				return dataflow.Top(pi.width)
			})
		} else {
			for _, e := range S {
				e.vals[v] = dataflow.Top(pi.width)
			}
		}
		if w.zone != nil {
			w.zone.Havoc(v + 1)
		}
	case cprog.Assume:
		S = refineSet(S, st.Cond, true, w.sc, pi, w.eng.cap)
	case cprog.Assert:
		proved := true
		for _, e := range S {
			dt, _ := condHolds(st.Cond, e, w.sc, pi.width)
			if !dt {
				proved = false
				break
			}
		}
		if !proved && w.zoneProves(st.Cond) {
			proved = true
		}
		w.eng.noteAssert(w.sc.name+":"+p, proved)
	case cprog.If:
		heldIn := w.held
		T := w.walkStmts(st.Then, refineSet(S, st.Cond, true, w.sc, pi, w.eng.cap), p+".t")
		heldThen := w.held
		w.held = heldIn
		E := w.walkStmts(st.Else, refineSet(S, st.Cond, false, w.sc, pi, w.eng.cap), p+".e")
		w.held = heldIntersect(heldThen, w.held)
		S = joinSets(T, E, w.eng.cap)
		if w.zone != nil {
			both := append(append([]cprog.Stmt{}, st.Then...), st.Else...)
			w.zoneHavocWritten(both, S)
		}
	case cprog.While:
		S = w.walkWhile(st, S, p)
		w.zoneHavocWritten(st.Body, S)
	case cprog.Lock:
		v := w.sc.idx[st.Mutex]
		for _, e := range S {
			e.fence()
		}
		var acq stateSet
		for _, e := range S {
			m := dataflow.Meet(e.vals[v], dataflow.FromConst(0, pi.width))
			if m.IsEmpty() {
				continue
			}
			e.setVal(v, m, pi.nShared)
			acq = append(acq, e)
		}
		S = acq
		S = w.execSharedWrite(v, S, p, heldAdd(w.held, st.Mutex), func(*env) iv {
			return dataflow.FromConst(1, pi.width)
		})
		for _, e := range S {
			e.fence()
		}
		if w.zone != nil {
			w.zone.AssignConst(v+1, 1)
		}
		w.held = heldAdd(w.held, st.Mutex)
	case cprog.Unlock:
		v := w.sc.idx[st.Mutex]
		for _, e := range S {
			e.fence()
		}
		S = w.execSharedWrite(v, S, p, w.held, func(*env) iv {
			return dataflow.FromConst(0, pi.width)
		})
		for _, e := range S {
			e.fence()
		}
		if w.zone != nil {
			w.zone.AssignConst(v+1, 0)
		}
		w.held = heldRemove(w.held, st.Mutex)
	case cprog.Fence:
		for _, e := range S {
			e.fence()
		}
	case cprog.Atomic:
		S = w.runComposite(st.Body, 0, len(st.Body)-1, S, p+".a", true, p)
	}
	return S
}

// walkWhile iterates the loop body to an interference-aware fixpoint,
// widening after a few rounds so termination is guaranteed.
func (w *walker) walkWhile(st cprog.While, S stateSet, p string) stateSet {
	pi := w.eng.pi
	head := S
	heldIn := w.held
	for it := 0; it < 200; it++ {
		body := w.walkStmts(st.Body, refineSet(head, st.Cond, true, w.sc, pi, w.eng.cap), p+".b")
		w.held = heldIntersect(w.held, heldIn)
		nh := joinSets(head, body, w.eng.cap)
		if it >= w.eng.widenLoop {
			nh = widenSets(head, nh, pi.width)
		}
		if equalSets(nh, head) {
			break
		}
		head = nh
		if w.eng.bailed {
			break
		}
	}
	return refineSet(head, st.Cond, false, w.sc, pi, w.eng.cap)
}

// widenSets collapses both sets to hulls and widens value ranges upward so
// loop fixpoints terminate.
func widenSets(old, grown stateSet, width int) stateSet {
	if len(grown) == 0 {
		return grown
	}
	g := hullEnv(grown)
	if len(old) == 0 {
		return stateSet{g}
	}
	o := hullEnv(old)
	for v := range g.vals {
		g.vals[v] = dataflow.Widen(o.vals[v], dataflow.Join(o.vals[v], g.vals[v]), width)
	}
	return stateSet{g}
}

// execSharedWrite evaluates the per-environment image, records the rely
// transition (or collects it for the enclosing composite), and updates the
// walking thread's own view.
func (w *walker) execSharedWrite(v int, S stateSet, key string, heldCommit []string, imgOf func(*env) iv) stateSet {
	if len(S) == 0 {
		return S
	}
	img := dataflow.Empty()
	imgs := make([]iv, len(S))
	for i, e := range S {
		imgs[i] = imgOf(e)
		img = dataflow.Join(img, imgs[i])
	}
	if w.eng.rel != nil {
		// The stored value becomes the variable's value, so the relational
		// global range caps the write image. An empty meet marks the
		// environment as value-infeasible; the interval image is kept as the
		// conservative stand-in rather than dropping the state.
		g := w.eng.rel.Global(w.eng.pi.shared[v])
		if m := dataflow.Meet(img, g); !m.IsEmpty() {
			img = m
			for i := range imgs {
				if mi := dataflow.Meet(imgs[i], g); !mi.IsEmpty() {
					imgs[i] = mi
				}
			}
		}
	}
	w.eng.curRange[v] = dataflow.Join(w.eng.curRange[v], img)
	if w.compDep > 0 {
		w.coll.add(v, img)
	} else if w.record {
		guard := w.guardFor(S, nil, v)
		w.recordTrans(key, heldCommit, guard, []write{{v: v, img: img}}, false)
	}
	for i, e := range S {
		e.writeOwn(v, imgs[i])
	}
	return S
}
