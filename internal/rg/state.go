package rg

import (
	"sort"

	"zpre/internal/cprog"
	"zpre/internal/dataflow"
)

type iv = dataflow.Interval

// progInfo is the interned view of the program shared by all walks: shared
// variables get the low indices, each scope (thread or post block) extends
// them with its own locals.
type progInfo struct {
	width     int
	nShared   int
	shared    []string
	sharedIdx map[string]int
	initVals  []int64
}

// scope is one sequential code body (a thread or the post block) with its
// local variables interned after the shared ones.
type scope struct {
	name   string
	thread int // index into Program.Threads, -1 for post
	body   []cprog.Stmt
	idx    map[string]int // shared + locals
	names  []string       // index -> name (len == nVars)
	nVars  int
}

func buildProgInfo(p *cprog.Program, width int) *progInfo {
	pi := &progInfo{
		width:     width,
		nShared:   len(p.Shared),
		sharedIdx: make(map[string]int, len(p.Shared)),
	}
	for i, d := range p.Shared {
		pi.shared = append(pi.shared, d.Name)
		pi.sharedIdx[d.Name] = i
		pi.initVals = append(pi.initVals, d.Init)
	}
	return pi
}

func buildScope(pi *progInfo, name string, thread int, body []cprog.Stmt) *scope {
	sc := &scope{
		name:   name,
		thread: thread,
		body:   body,
		idx:    make(map[string]int, pi.nShared+4),
	}
	sc.names = append(sc.names, pi.shared...)
	for n, i := range pi.sharedIdx { //mapiter:ok copy into per-scope index
		sc.idx[n] = i
	}
	collectLocals(body, sc)
	sc.nVars = len(sc.names)
	return sc
}

func collectLocals(body []cprog.Stmt, sc *scope) {
	for _, s := range body {
		switch st := s.(type) {
		case cprog.Local:
			addLocal(sc, st.Name)
		case cprog.Assign:
			addLocal(sc, st.Lhs)
		case cprog.Havoc:
			addLocal(sc, st.Name)
		case cprog.If:
			collectLocals(st.Then, sc)
			collectLocals(st.Else, sc)
		case cprog.While:
			collectLocals(st.Body, sc)
		case cprog.Atomic:
			collectLocals(st.Body, sc)
		}
	}
}

func addLocal(sc *scope, name string) {
	if _, ok := sc.idx[name]; ok {
		return
	}
	sc.idx[name] = len(sc.names)
	sc.names = append(sc.names, name)
}

// env is one abstract world: an interval per variable of the current scope,
// plus bookkeeping about the walking thread's own writes that the per-model
// rely guards need (own = value of the last own write to each shared
// variable, valid while ownSet; fenced = a full fence separates that write
// from the current point). vals+own and ownSet+fenced each share one
// backing array; the capacity-capped slices never alias on append.
type env struct {
	vals   []iv
	own    []iv
	ownSet []bool
	fenced []bool
}

// newEnv allocates a zeroed environment over nVars variables, of which the
// first nShared are shared.
func newEnv(nVars, nShared int) *env {
	ivs := make([]iv, nVars+nShared)
	flags := make([]bool, 2*nShared)
	return &env{
		vals:   ivs[:nVars:nVars],
		own:    ivs[nVars:],
		ownSet: flags[:nShared:nShared],
		fenced: flags[nShared:],
	}
}

func newInitEnv(pi *progInfo, sc *scope) *env {
	e := newEnv(sc.nVars, pi.nShared)
	for i := 0; i < pi.nShared; i++ {
		e.vals[i] = dataflow.FromConst(pi.initVals[i], pi.width)
	}
	for i := pi.nShared; i < sc.nVars; i++ {
		e.vals[i] = dataflow.FromConst(0, pi.width)
	}
	return e
}

func (e *env) clone() *env {
	c := newEnv(len(e.vals), len(e.own))
	c.copyFrom(e)
	return c
}

// copyFrom overwrites e with src, which must have the same shape.
func (e *env) copyFrom(src *env) {
	copy(e.vals, src.vals)
	copy(e.own, src.own)
	copy(e.ownSet, src.ownSet)
	copy(e.fenced, src.fenced)
}

// setVal assigns a refined value to a variable, keeping the own-write image
// in sync: while ownSet holds, vals == own (no rely write intervened), so a
// refinement of the visible value also refines the value that was written.
func (e *env) setVal(v int, x iv, nShared int) {
	e.vals[v] = x
	if v < nShared && e.ownSet[v] {
		e.own[v] = dataflow.Meet(e.own[v], x)
	}
}

// writeOwn records an own write of shared variable v with image x.
func (e *env) writeOwn(v int, x iv) {
	e.vals[v] = x
	e.own[v] = x
	e.ownSet[v] = true
	e.fenced[v] = false
}

// fence marks every pending own write as ordered before anything that
// follows (full fence; Lock/Unlock are fence-bracketed by the encoder).
func (e *env) fence() {
	for i := range e.ownSet {
		if e.ownSet[i] {
			e.fenced[i] = true
		}
	}
}

func ivCmp(a, b iv) int {
	switch {
	case a.Lo != b.Lo:
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	return 0
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

func envCmp(a, b *env) int {
	for i := range a.vals {
		if c := ivCmp(a.vals[i], b.vals[i]); c != 0 {
			return c
		}
	}
	for i := range a.ownSet {
		if c := boolCmp(a.ownSet[i], b.ownSet[i]); c != 0 {
			return c
		}
		if c := boolCmp(a.fenced[i], b.fenced[i]); c != 0 {
			return c
		}
		if a.ownSet[i] {
			if c := ivCmp(a.own[i], b.own[i]); c != 0 {
				return c
			}
		}
	}
	return 0
}

// envHash is a hash of an environment that agrees with envCmp: equal
// environments hash equally. Like envCmp it ignores own[i] while ownSet[i]
// is false.
func envHash(e *env) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, x := range e.vals {
		mix(uint64(x.Lo))
		mix(uint64(x.Hi))
	}
	for i, set := range e.ownSet {
		var f uint64
		if set {
			f = 1
		}
		if e.fenced[i] {
			f |= 2
		}
		mix(f)
		if set {
			mix(uint64(e.own[i].Lo))
			mix(uint64(e.own[i].Hi))
		}
	}
	// Finalize so the low bits used to pick a slot depend on every input.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// envSet is a hash index of distinct environments (equal under envCmp).
// It does not own or order them: callers keep their own slice and use the
// set for O(1) membership. The zero value is an empty set.
type envSet struct {
	slots []envSlot // open addressing; len is a power of two, at most half full
	n     int
}

type envSlot struct {
	h uint64
	e *env
}

// reset empties the set, keeping its table for reuse.
func (s *envSet) reset() {
	clear(s.slots)
	s.n = 0
}

// probe returns the slot holding an environment equal to e, or the empty
// slot where e belongs.
func (s *envSet) probe(e *env) (slot int, h uint64, found bool) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	h = envHash(e)
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.e == nil {
			return i, h, false
		}
		if sl.h == h && envCmp(sl.e, e) == 0 {
			return i, h, true
		}
	}
}

func (s *envSet) grow() {
	old := s.slots
	s.slots = make([]envSlot, max(16, 2*len(old)))
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.e == nil {
			continue
		}
		i := int(sl.h) & mask
		for s.slots[i].e != nil {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// add inserts e itself unless an equal environment is present.
func (s *envSet) add(e *env) {
	if i, h, found := s.probe(e); !found {
		s.slots[i] = envSlot{h, e}
		s.n++
	}
}

// addCopy inserts a clone of e unless an equal environment is present, and
// returns the clone (nil for a duplicate). e itself may be scratch space.
func (s *envSet) addCopy(e *env) *env {
	i, h, found := s.probe(e)
	if found {
		return nil
	}
	c := e.clone()
	s.slots[i] = envSlot{h, c}
	s.n++
	return c
}

// stateSet is a bounded disjunction of environments. The disjuncts carry the
// cross-variable correlations (flag==1 implies data==1) that a single
// interval hull loses; overflowing the cap collapses to the hull.
type stateSet []*env

// hullEnv joins a non-empty set into a single environment.
func hullEnv(set stateSet) *env {
	h := set[0].clone()
	for _, e := range set[1:] {
		for i := range h.vals {
			h.vals[i] = dataflow.Join(h.vals[i], e.vals[i])
		}
		for i := range h.ownSet {
			h.own[i] = dataflow.Join(h.own[i], e.own[i])
			h.ownSet[i] = h.ownSet[i] && e.ownSet[i]
			h.fenced[i] = h.fenced[i] && e.fenced[i]
		}
	}
	return h
}

// normalize sorts, dedupes and caps a state set. Deterministic: the order
// is a pure function of the contents.
func normalize(set stateSet, cap int) stateSet {
	if len(set) == 0 {
		return set
	}
	sort.Slice(set, func(i, j int) bool { return envCmp(set[i], set[j]) < 0 })
	out := set[:1]
	for _, e := range set[1:] {
		if envCmp(out[len(out)-1], e) != 0 {
			out = append(out, e)
		}
	}
	if len(out) > cap {
		return stateSet{hullEnv(out)}
	}
	return out
}

func joinSets(a, b stateSet, cap int) stateSet {
	merged := make(stateSet, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return normalize(merged, cap)
}

func equalSets(a, b stateSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if envCmp(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// hullOf computes the per-variable hull of a set (Empty if the set is
// empty, i.e. the point is unreachable).
func hullOf(set stateSet, v int) iv {
	if len(set) == 0 {
		return dataflow.Empty()
	}
	h := set[0].vals[v]
	for _, e := range set[1:] {
		h = dataflow.Join(h, e.vals[v])
	}
	return h
}

// evalExpr over-approximates an expression in one environment.
func evalExpr(e cprog.Expr, en *env, sc *scope, width int) iv {
	switch x := e.(type) {
	case cprog.Const:
		return dataflow.FromConst(x.Value, width)
	case cprog.Ref:
		if i, ok := sc.idx[x.Name]; ok {
			return en.vals[i]
		}
		return dataflow.Top(width)
	case cprog.UnOp:
		return dataflow.UnInterval(x.Op, evalExpr(x.X, en, sc, width), width)
	case cprog.BinOp:
		l := evalExpr(x.L, en, sc, width)
		r := evalExpr(x.R, en, sc, width)
		return dataflow.BinInterval(x.Op, l, r, width)
	}
	return dataflow.Top(width)
}

// condDefinitely reports whether the condition is definitely true (want) or
// definitely false (!want) in the environment: the 0/1-ish interval of the
// condition excludes the other outcome.
func condHolds(c cprog.Expr, en *env, sc *scope, width int) (definitelyTrue, definitelyFalse bool) {
	v := evalExpr(c, en, sc, width)
	if v.IsEmpty() {
		return true, true // unreachable: vacuous either way
	}
	return !v.Contains(0), v.Lo == 0 && v.Hi == 0
}

// refineSet filters and narrows a set by a condition outcome. Sound: every
// concrete state satisfying (cond != 0) == want that was represented before
// is still represented after.
func refineSet(set stateSet, cond cprog.Expr, want bool, sc *scope, pi *progInfo, cap int) stateSet {
	var out stateSet
	for _, e := range set {
		// Clone: the same set is refined both ways at branches, and
		// refineEnv narrows in place.
		out = append(out, refineEnv(e.clone(), cond, want, sc, pi)...)
	}
	return normalize(out, cap)
}

func refineEnv(e *env, cond cprog.Expr, want bool, sc *scope, pi *progInfo) []*env {
	switch c := cond.(type) {
	case cprog.Const:
		if (c.Value != 0) == want {
			return []*env{e}
		}
		return nil
	case cprog.UnOp:
		if c.Op == cprog.OpLNot {
			return refineEnv(e, c.X, !want, sc, pi)
		}
	case cprog.BinOp:
		switch c.Op {
		case cprog.OpLAnd:
			if want {
				var out []*env
				for _, m := range refineEnv(e, c.L, true, sc, pi) {
					out = append(out, refineEnv(m, c.R, true, sc, pi)...)
				}
				return out
			}
			// !(L && R): either side false; overlap is fine (it is a join).
			out := refineEnv(e.clone(), c.L, false, sc, pi)
			return append(out, refineEnv(e, c.R, false, sc, pi)...)
		case cprog.OpLOr:
			if !want {
				var out []*env
				for _, m := range refineEnv(e, c.L, false, sc, pi) {
					out = append(out, refineEnv(m, c.R, false, sc, pi)...)
				}
				return out
			}
			out := refineEnv(e.clone(), c.L, true, sc, pi)
			return append(out, refineEnv(e, c.R, true, sc, pi)...)
		case cprog.OpEq, cprog.OpNe, cprog.OpLt, cprog.OpLe, cprog.OpGt, cprog.OpGe:
			return refineCmp(e, c, want, sc, pi)
		}
	}
	// Generic fallback: keep the environment unless the condition evaluates
	// to the definitely-wrong outcome.
	dt, df := condHolds(cond, e, sc, pi.width)
	if (want && df) || (!want && dt) {
		return nil
	}
	return []*env{e}
}

// refineCmp narrows variable operands of a comparison. The operator is
// normalised so that `want` is true.
func refineCmp(e *env, c cprog.BinOp, want bool, sc *scope, pi *progInfo) []*env {
	op := c.Op
	if !want {
		switch op {
		case cprog.OpEq:
			op = cprog.OpNe
		case cprog.OpNe:
			op = cprog.OpEq
		case cprog.OpLt:
			op = cprog.OpGe
		case cprog.OpLe:
			op = cprog.OpGt
		case cprog.OpGt:
			op = cprog.OpLe
		case cprog.OpGe:
			op = cprog.OpLt
		}
	}
	l := evalExpr(c.L, e, sc, pi.width)
	r := evalExpr(c.R, e, sc, pi.width)
	if l.IsEmpty() || r.IsEmpty() {
		return nil
	}
	nl, nr := narrowCmp(op, l, r, pi.width)
	if nl.IsEmpty() || nr.IsEmpty() {
		return nil
	}
	if ref, ok := c.L.(cprog.Ref); ok {
		if i, ok := sc.idx[ref.Name]; ok {
			e.setVal(i, nl, pi.nShared)
		}
	}
	if ref, ok := c.R.(cprog.Ref); ok {
		if i, ok := sc.idx[ref.Name]; ok {
			e.setVal(i, nr, pi.nShared)
		}
	}
	return []*env{e}
}

// narrowCmp returns the narrowed (left, right) intervals assuming `l op r`
// holds. Returns Empty when the comparison cannot hold at all.
func narrowCmp(op cprog.Op, l, r iv, width int) (iv, iv) {
	switch op {
	case cprog.OpEq:
		m := dataflow.Meet(l, r)
		return m, m
	case cprog.OpNe:
		// Only endpoint punctures are representable.
		nl, nr := l, r
		if r.Lo == r.Hi {
			if nl.Lo == r.Lo {
				nl.Lo++
			}
			if nl.Hi == r.Lo {
				nl.Hi--
			}
		}
		if l.Lo == l.Hi {
			if nr.Lo == l.Lo {
				nr.Lo++
			}
			if nr.Hi == l.Lo {
				nr.Hi--
			}
		}
		return nl, nr
	case cprog.OpLt:
		return dataflow.Meet(l, iv{Lo: dataflow.MinSigned(width), Hi: r.Hi - 1}),
			dataflow.Meet(r, iv{Lo: l.Lo + 1, Hi: dataflow.MaxSigned(width)})
	case cprog.OpLe:
		return dataflow.Meet(l, iv{Lo: dataflow.MinSigned(width), Hi: r.Hi}),
			dataflow.Meet(r, iv{Lo: l.Lo, Hi: dataflow.MaxSigned(width)})
	case cprog.OpGt:
		return dataflow.Meet(l, iv{Lo: r.Lo + 1, Hi: dataflow.MaxSigned(width)}),
			dataflow.Meet(r, iv{Lo: dataflow.MinSigned(width), Hi: l.Hi - 1})
	case cprog.OpGe:
		return dataflow.Meet(l, iv{Lo: r.Lo, Hi: dataflow.MaxSigned(width)}),
			dataflow.Meet(r, iv{Lo: dataflow.MinSigned(width), Hi: l.Hi})
	}
	return l, r
}
