package sat

// analyze performs first-UIP conflict analysis on the conflicting clause
// (an arena ref, or theoryConflRef for a conflict held in tempConfl) and
// returns the learnt clause (asserting literal first, a literal of the
// second highest level at position 1) and the backjump level. The clause
// lives in solver scratch until the next analysis. Must be called at
// decision level > 0 with every literal of the conflict false.
func (s *Solver) analyze(confl ClauseRef) (learnt []Lit, btLevel int) {
	pathC := 0
	p := LitUndef
	learnt = append(s.learntBuf[:0], LitUndef) // slot for the asserting literal
	idx := len(s.trail) - 1
	c := confl

	for {
		var lits []Lit
		if c == theoryConflRef {
			lits = s.tempConfl
		} else {
			lits = s.ca.lits(c)
			if s.ca.learnt(c) {
				s.claBump(c)
				s.updateLBD(c)
			}
		}
		start := 0
		if p != LitUndef {
			start = 1 // skip the propagated literal at position 0
		}
		for j := start; j < len(lits); j++ {
			q := lits[j]
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.varBump(v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		c = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC <= 0 {
			break
		}
	}
	learnt[0] = p.Neg()

	// Clause minimisation, deep (recursive) mode: a literal is redundant if
	// its whole implication cone bottoms out in level-0 facts and literals
	// already in the learnt clause. The abstraction mask prunes cones that
	// touch decision levels the clause does not mention.
	s.minimizeCl = append(s.minimizeCl[:0], learnt...)
	s.minClear = s.minClear[:0]
	var abstract uint32
	for i := 1; i < len(learnt); i++ {
		abstract |= abstractLevel(s.level[learnt[i].Var()])
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		q := learnt[i]
		if s.reason[q.Var()] == NullRef || !s.litRedundant(q, abstract) {
			learnt[j] = q
			j++
		}
	}
	learnt = learnt[:j]

	// Clear seen flags for all involved variables.
	for _, l := range s.minimizeCl {
		s.seen[l.Var()] = 0
	}
	for _, v := range s.minClear {
		s.seen[v] = 0
	}

	// Find the backjump level: the second-highest decision level.
	if len(learnt) == 1 {
		s.learntBuf = learnt
		return learnt, 0
	}
	maxI := 1
	for i := 2; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
			maxI = i
		}
	}
	learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
	s.learntBuf = learnt
	return learnt, int(s.level[learnt[1].Var()])
}

// abstractLevel hashes a decision level into a 32-bit membership mask.
func abstractLevel(lvl int32) uint32 { return 1 << (uint32(lvl) & 31) }

// litRedundant reports whether q's implication cone is fully covered by
// level-0 facts and seen (learnt-clause) literals, walking reasons
// iteratively with an explicit stack. Literals proven redundant get their
// seen flag set (recorded in minClear for cleanup) so shared cones are
// walked once.
func (s *Solver) litRedundant(q Lit, abstract uint32) bool {
	s.minStack = append(s.minStack[:0], q)
	top := len(s.minClear)
	for len(s.minStack) > 0 {
		p := s.minStack[len(s.minStack)-1]
		s.minStack = s.minStack[:len(s.minStack)-1]
		lits := s.ca.lits(s.reason[p.Var()])
		for k := 1; k < len(lits); k++ {
			l := lits[k]
			v := l.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == NullRef || abstractLevel(s.level[v])&abstract == 0 {
				// A decision, or a level outside the clause: q must stay.
				for len(s.minClear) > top {
					s.seen[s.minClear[len(s.minClear)-1]] = 0
					s.minClear = s.minClear[:len(s.minClear)-1]
				}
				return false
			}
			s.seen[v] = 1
			s.minClear = append(s.minClear, v)
			s.minStack = append(s.minStack, l)
		}
	}
	return true
}
