package sat

import "time"

// Inprocessing: equivalence-preserving formula simplification run at solve
// entry and between restarts, always at decision level 0.
//
// The pipeline is (1) top-level simplification — drop satisfied clauses,
// strip false literals — (2) forward subsumption and self-subsuming
// resolution over the whole clause database, and (3), only in InprocessBVE
// mode, bounded variable elimination.
//
// Soundness argument (DESIGN.md §17 has the long form):
//
//   - Steps 1 and 2 preserve logical equivalence, so models, assumption
//     cores and incrementally added clauses all stay sound.
//   - Every derived clause (a strengthened clause, a resolvent) is RUP with
//     respect to the database it is added to, so the proof log records
//     Learnt(new) before Deleted(old) and stays checkable.
//   - When a learnt clause subsumes a problem clause, the learnt clause is
//     promoted to problem status before the problem clause is deleted:
//     learnt clauses may be garbage-collected, problem clauses may not.
//   - Level-0 reasons are cleared before any clause is deleted; nothing in
//     conflict analysis dereferences the reason of a level-0 literal.
//   - BVE is only equisatisfiable: eliminated variables are re-derived
//     during saveModel from the reconstruction stack, and any later clause
//     or assumption over an eliminated variable panics (the mode is
//     documented one-shot).

// ipClause is a clause in the inprocessing working set: its arena ref, a
// variable-membership signature for the subset filter, and whether it is a
// problem clause (learnt clauses may be deleted freely; problem clauses may
// only disappear when subsumed or eliminated).
type ipClause struct {
	ref     ClauseRef
	sig     uint64
	problem bool
	dead    bool
}

func varSig(lits []Lit) uint64 {
	var sig uint64
	for _, l := range lits {
		sig |= 1 << (uint64(l.Var()) & 63)
	}
	return sig
}

// occIndex is a flat (CSR) literal-occurrence index over the working set:
// list(l) is the set of clause indices containing l. Built in three
// allocations regardless of clause count — per-literal append lists were the
// dominant allocation cost of an inprocessing round. Strengthening leaves
// stale entries behind (subsumes re-checks membership), so the index is
// never updated after construction.
type occIndex struct {
	start []int32 // literal -> offset of its slice in items; len = 2V+1
	items []int32
}

func (o *occIndex) list(l Lit) []int32 { return o.items[o.start[l]:o.start[l+1]] }

func (s *Solver) buildOcc(cls []ipClause) occIndex {
	nl := 2 * len(s.assigns)
	start := resized(s.ip.start, nl+1)
	clear(start)
	total := 0
	for i := range cls {
		if cls[i].dead {
			continue
		}
		lits := s.ca.lits(cls[i].ref)
		total += len(lits)
		for _, l := range lits {
			start[l+1]++
		}
	}
	for i := 0; i < nl; i++ {
		start[i+1] += start[i]
	}
	items := resized(s.ip.items, total)
	cur := resized(s.ip.cur, nl)
	copy(cur, start[:nl])
	for i := range cls {
		if cls[i].dead {
			continue
		}
		for _, l := range s.ca.lits(cls[i].ref) {
			items[cur[l]] = int32(i)
			cur[l]++
		}
	}
	s.ip.start, s.ip.items, s.ip.cur = start, items, cur
	return occIndex{start: start, items: items}
}

// ipScratch is the working storage of an inprocessing round: the clause
// working set, the occurrence index's arrays and the subsumption order. The
// solver keeps it between rounds and across Reset, so a round allocates
// nothing once the buffers have grown to the formula's size.
type ipScratch struct {
	cls               []ipClause
	start, items, cur []int32
	order             []int32
}

// resized returns buf with length n, reallocating only when its capacity
// is short. The contents are not cleared.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// inprocess runs one inprocessing round. It returns false when the round
// derives a top-level conflict (the caller records the empty proof clause
// and returns Unsat). On return the clause lists, watch lists and
// propagation queues are consistent and at fixpoint.
func (s *Solver) inprocess() bool {
	if s.decisionLevel() != 0 {
		panic("sat: inprocess during search")
	}
	if !s.ok {
		return false
	}
	if s.Timings != nil {
		t0 := time.Now()
		defer func() { s.Timings.Inprocess += time.Since(t0) }()
	}
	// Reach a propagation fixpoint first so the level-0 assignment the
	// simplification works against is complete.
	if s.propagateAll() != NullRef {
		s.ok = false
		return false
	}
	// Level-0 trail literals are permanent facts; their reason clauses are
	// about to become deletable, so forget them — and first emit them to the
	// proof as unit clauses (each is RUP here, while every antecedent is
	// still in the database; once satisfied clauses are deleted the checker
	// could no longer re-derive them for later strengthening steps).
	if s.Proof != nil {
		for _, l := range s.trail[s.proofUnits:] {
			s.Proof.Learnt([]Lit{l})
		}
		s.proofUnits = len(s.trail)
	}
	for _, l := range s.trail {
		s.reason[l.Var()] = NullRef
	}
	s.stats.Inprocessings++
	subsumed0, strengthened0 := s.stats.SubsumedCls, s.stats.StrengthenedCls

	// Build the working set, applying top-level simplification on the way.
	cls := s.ip.cls[:0]
	collect := func(refs []ClauseRef, problem bool) bool {
		for _, r := range refs {
			if s.ca.deleted(r) {
				continue
			}
			if !s.simplifyClause(r, problem) {
				return false
			}
			if s.ca.deleted(r) {
				continue
			}
			cls = append(cls, ipClause{ref: r, sig: varSig(s.ca.lits(r)), problem: problem})
		}
		return true
	}
	okc := collect(s.clauses, true)
	if okc {
		okc = collect(s.learnts, false)
	}
	if okc {
		oi := s.buildOcc(cls)
		okc = s.subsumptionPass(cls, &oi)
	}
	if okc && s.Inprocessing == InprocessBVE {
		// BVE appends resolvents, so it needs growable per-literal lists;
		// the mode is flag-gated, so the allocation cost stays off the
		// default path.
		occ := make([][]int32, 2*len(s.assigns))
		for i := range cls {
			if cls[i].dead || s.ca.deleted(cls[i].ref) {
				continue
			}
			for _, l := range s.ca.lits(cls[i].ref) {
				occ[l] = append(occ[l], int32(i))
			}
		}
		okc = s.eliminateVars(&cls, occ)
	}
	s.ip.cls = cls[:0]

	// Rebuild the clause lists from the working set (subsumption may have
	// promoted learnt clauses to problem status) and restart propagation
	// from the top of the trail: strengthening moves literals, so every
	// watch list is rebuilt from scratch.
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	for _, c := range cls {
		if c.dead || s.ca.deleted(c.ref) {
			continue
		}
		if c.problem {
			s.clauses = append(s.clauses, c.ref)
		} else {
			s.learnts = append(s.learnts, c.ref)
		}
	}
	// Recount variable occurrences exactly over the live clauses: variables
	// whose every clause was satisfied or subsumed away become elidable from
	// the decision order (mid-search the counters go back to being a
	// monotone over-approximation, which is the safe direction).
	for i := range s.occs {
		s.occs[i] = 0
	}
	for _, list := range [2][]ClauseRef{s.clauses, s.learnts} {
		for _, r := range list {
			s.countOccs(s.ca.lits(r))
		}
	}
	s.rebuildWatches()
	s.qhead = 0
	if !okc {
		s.ok = false
		return false
	}
	if s.propagateAll() != NullRef {
		s.ok = false
		return false
	}
	s.dirtyClauses = 0
	s.lastInprocess = s.stats.Conflicts
	if s.Tracer != nil {
		s.Tracer.Inprocess(
			int(s.stats.SubsumedCls-subsumed0),
			int(s.stats.StrengthenedCls-strengthened0),
		)
	}
	return true
}

// simplifyClause applies the level-0 assignment to one clause: deletes it
// when satisfied, strips false literals otherwise, enqueueing a resulting
// unit. Returns false on a top-level conflict (empty clause).
func (s *Solver) simplifyClause(r ClauseRef, problem bool) bool {
	lits := s.ca.lits(r)
	n := 0
	falseSeen := false
	for _, l := range lits {
		switch s.valueLitInternal(l) {
		case LTrue:
			s.deleteClause(r)
			return true
		case LFalse:
			falseSeen = true
		default:
			lits[n] = l
			n++
		}
	}
	if !falseSeen {
		return true
	}
	switch n {
	case 0:
		return false
	case 1:
		if s.Proof != nil {
			s.Proof.Learnt(lits[:1])
		}
		s.uncheckedEnqueue(lits[0], NullRef)
		s.deleteClause(r)
		s.stats.StrengthenedCls++
		return true
	}
	// Strengthened clause first (RUP via the level-0 units), then the
	// original's deletion.
	if s.Proof != nil {
		s.Proof.Learnt(lits[:n])
		old := make([]Lit, 0, len(lits))
		old = append(old, lits[:n]...)
		for _, l := range lits[n:] {
			old = append(old, l)
		}
		s.Proof.Deleted(old)
	}
	s.ca.shrink(r, n)
	s.stats.StrengthenedCls++
	_ = problem
	return true
}

// subsumes checks c against d. It returns (true, LitUndef) when c subsumes
// d, and (true, l) when c with one literal flipped subsumes d — then l (a
// literal of d) can be removed from d by self-subsuming resolution.
// Clauses never repeat a variable, so at most one flip can occur.
func subsumes(c, d []Lit) (bool, Lit) {
	ret := LitUndef
	for _, lc := range c {
		matched := false
		for _, ld := range d {
			if lc == ld {
				matched = true
				break
			}
			if ret == LitUndef && lc == ld.Neg() {
				ret = ld
				matched = true
				break
			}
		}
		if !matched {
			return false, LitUndef
		}
	}
	return true, ret
}

// subsumptionPass runs forward subsumption + self-subsuming resolution to a
// bounded fixpoint. Returns false on a derived top-level conflict.
func (s *Solver) subsumptionPass(cls []ipClause, occ *occIndex) bool {
	// Process smaller clauses first: they are the likeliest subsumers.
	order := resized(s.ip.order, len(cls))
	s.ip.order = order
	for i := range order {
		order[i] = int32(i)
	}
	sortInt32(order, func(a, b int32) bool {
		return s.ca.size(cls[a].ref) < s.ca.size(cls[b].ref)
	})
	for pass := 0; pass < 2; pass++ {
		changed := false
		for _, ci := range order {
			c := &cls[ci]
			if c.dead {
				continue
			}
			if !s.subsumeWith(ci, cls, occ, &changed) {
				return false
			}
		}
		if !changed {
			break
		}
	}
	return true
}

// subsumeWith tries clause ci against every clause sharing its least-common
// literal's variable. Returns false on a top-level conflict.
func (s *Solver) subsumeWith(ci int32, cls []ipClause, occ *occIndex, changed *bool) bool {
	c := &cls[ci]
	clits := s.ca.lits(c.ref)
	if len(clits) == 0 {
		return true
	}
	// Scan the occurrence lists of the clause's least-occurring literal and
	// of its negation (for self-subsumption on the flipped literal).
	best := clits[0]
	for _, l := range clits[1:] {
		if len(occ.list(l))+len(occ.list(l.Neg())) < len(occ.list(best))+len(occ.list(best.Neg())) {
			best = l
		}
	}
	for _, list := range [2][]int32{occ.list(best), occ.list(best.Neg())} {
		for _, di := range list {
			if di == ci {
				continue
			}
			d := &cls[di]
			if d.dead || c.dead {
				continue
			}
			if c.sig&^d.sig != 0 || s.ca.size(c.ref) > s.ca.size(d.ref) {
				continue
			}
			ok, flip := subsumes(s.ca.lits(c.ref), s.ca.lits(d.ref))
			if !ok {
				continue
			}
			if flip == LitUndef {
				// c subsumes d. If a learnt clause subsumes a problem clause
				// it must take over the problem role before d is deleted.
				if d.problem && !c.problem {
					c.problem = true
					s.ca.setLearnt(c.ref, false)
				}
				s.deleteClause(d.ref)
				d.dead = true
				s.stats.SubsumedCls++
				*changed = true
				continue
			}
			if !s.strengthen(di, cls, flip) {
				return false
			}
			*changed = true
		}
	}
	return true
}

// strengthen removes literal flip from clause di by self-subsuming
// resolution, maintaining proof log, signature and occurrence lists.
// Returns false on a derived top-level conflict.
func (s *Solver) strengthen(di int32, cls []ipClause, flip Lit) bool {
	d := &cls[di]
	lits := s.ca.lits(d.ref)
	n := 0
	for _, l := range lits {
		if l != flip {
			lits[n] = l
			n++
		}
	}
	if s.Proof != nil {
		s.Proof.Learnt(lits[:n])
		old := append(append(make([]Lit, 0, n+1), lits[:n]...), flip)
		s.Proof.Deleted(old)
	}
	s.stats.StrengthenedCls++
	if n == 1 {
		u := lits[0]
		s.deleteClause(d.ref)
		d.dead = true
		switch s.valueLitInternal(u) {
		case LFalse:
			return false
		case LUndef:
			s.uncheckedEnqueue(u, NullRef)
		}
		return true
	}
	s.ca.shrink(d.ref, n)
	d.sig = varSig(lits[:n])
	// The occurrence list of flip keeps a stale entry for di; subsumes()
	// re-checks literal membership, so stale entries only cost a scan. The
	// shrunk clause becomes a stronger subsumer in the next pass.
	return true
}

// BVE bounds: a variable is only eliminated when each polarity occurs at
// most bveMaxOcc times and elimination does not grow the clause count.
const bveMaxOcc = 20

// eliminateVars runs bounded variable elimination over the working set.
// Frozen variables — theory-relevant, assumed, or already assigned — are
// skipped. Returns false on a derived top-level conflict.
func (s *Solver) eliminateVars(clsp *[]ipClause, occ [][]int32) bool {
	frozen := make([]bool, len(s.assigns))
	for _, a := range s.assumptions {
		frozen[a.Var()] = true
	}
	for v := range frozen {
		if s.assigns[v] != LUndef || s.elim[v] {
			frozen[v] = true
		} else if s.Theory != nil && s.Theory.Relevant(Var(v)) {
			frozen[v] = true
		}
	}
	for v := 0; v < len(frozen); v++ {
		if frozen[v] {
			continue
		}
		if !s.tryEliminate(Var(v), clsp, occ) {
			return false
		}
	}
	return true
}

// tryEliminate eliminates v if the resolvent bound allows it. Returns false
// on a derived top-level conflict.
func (s *Solver) tryEliminate(v Var, clsp *[]ipClause, occ [][]int32) bool {
	cls := *clsp
	pl, nl := PosLit(v), NegLit(v)
	pos := liveOccs(cls, occ[pl], pl, &s.ca)
	neg := liveOccs(cls, occ[nl], nl, &s.ca)
	if len(pos) == 0 && len(neg) == 0 {
		return true
	}
	if len(pos) > bveMaxOcc || len(neg) > bveMaxOcc {
		return true
	}
	// Count (and build) the non-tautological resolvents.
	var resolvents [][]Lit
	for _, pi := range pos {
		for _, ni := range neg {
			res, taut := resolve(s.ca.lits(cls[pi].ref), s.ca.lits(cls[ni].ref), v)
			if !taut {
				resolvents = append(resolvents, res)
			}
			if len(resolvents) > len(pos)+len(neg) {
				return true // elimination would grow the database
			}
		}
	}
	// Commit: record reconstruction clauses, add resolvents, delete the
	// originals (learnt clauses over v die too — they are lemmas of the old
	// formula, not necessarily of the new one).
	rec := elimRecord{v: v}
	for _, i := range append(append([]int32(nil), pos...), neg...) {
		rec.clauses = append(rec.clauses, append([]Lit(nil), s.ca.lits(cls[i].ref)...))
	}
	s.elimStack = append(s.elimStack, rec)
	for _, res := range resolvents {
		if s.Proof != nil {
			s.Proof.Learnt(res)
		}
		if len(res) == 1 {
			switch s.valueLitInternal(res[0]) {
			case LFalse:
				return false
			case LUndef:
				s.uncheckedEnqueue(res[0], NullRef)
			}
			continue
		}
		r := s.ca.alloc(res, false)
		s.countOccs(res)
		idx := int32(len(cls))
		cls = append(cls, ipClause{ref: r, sig: varSig(res), problem: true})
		for _, l := range res {
			occ[l] = append(occ[l], idx)
		}
	}
	for _, lists := range [2][]int32{occ[pl], occ[nl]} {
		for _, i := range lists {
			if !cls[i].dead && !s.ca.deleted(cls[i].ref) {
				s.deleteClause(cls[i].ref)
				cls[i].dead = true
			}
		}
	}
	s.elim[v] = true
	s.stats.EliminatedVars++
	*clsp = cls
	return true
}

// liveOccs filters an occurrence list down to live clauses that still
// contain the literal (strengthening leaves stale entries behind).
func liveOccs(cls []ipClause, list []int32, l Lit, ca *arena) []int32 {
	var out []int32
	for _, i := range list {
		c := cls[i]
		if c.dead || ca.deleted(c.ref) {
			continue
		}
		found := false
		for _, cl := range ca.lits(c.ref) {
			if cl == l {
				found = true
				break
			}
		}
		if found {
			out = append(out, i)
		}
	}
	return out
}

// resolve returns the resolvent of c (containing v) and d (containing ¬v)
// on v, reporting whether it is tautological.
func resolve(c, d []Lit, v Var) ([]Lit, bool) {
	out := make([]Lit, 0, len(c)+len(d)-2)
	for _, l := range c {
		if l.Var() != v {
			out = append(out, l)
		}
	}
	for _, l := range d {
		if l.Var() == v {
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				return nil, true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out, false
}

// sortInt32 is an allocation-free heapsort over int32 indices.
func sortInt32(xs []int32, less func(a, b int32) bool) {
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftInt32(xs, i, n, less)
	}
	for end := n - 1; end > 0; end-- {
		xs[0], xs[end] = xs[end], xs[0]
		siftInt32(xs, 0, end, less)
	}
}

func siftInt32(xs []int32, i, n int, less func(a, b int32) bool) {
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if child+1 < n && less(xs[child], xs[child+1]) {
			child++
		}
		if !less(xs[i], xs[child]) {
			return
		}
		xs[i], xs[child] = xs[child], xs[i]
		i = child
	}
}
