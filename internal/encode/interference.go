package encode

import (
	"sort"

	"zpre/internal/analysis"
	"zpre/internal/core"
	"zpre/internal/memmodel"
	"zpre/internal/smt"
)

// reachability adapts the shared must-happens-before engine
// (analysis.MHB, where the bitset BFS and the -mhb closure fixpoint live)
// to the encoder's smt.EventID call sites. The relation starts as the fixed
// program-order edges (including create/join) and is enriched by derived
// must edges (fixed happens-before, MHB closure) as encoding proceeds.
//
// Reflexivity convention: reaches(a, a) is true — an event trivially
// happens "no later than" itself. Callers that need strict precedence must
// exclude equal ids themselves (the edge graph is kept acyclic, so for
// a ≠ b the relation is strict).
type reachability struct {
	*analysis.MHB
}

func newReachability(n int) *reachability {
	return &reachability{analysis.NewMHB(n)}
}

func (r *reachability) addEdge(a, b smt.EventID) {
	r.MHB.AddEdge(int(a), int(b))
}

// addEdgeInvalidating adds an edge after memoised queries have been made
// and drops the memo: stale sets under-approximate the new reachability,
// which is fatal for the cycle check guarding fixed happens-before edges.
func (r *reachability) addEdgeInvalidating(a, b smt.EventID) {
	r.MHB.AddEdgeInvalidating(int(a), int(b))
}

func (r *reachability) reaches(a, b smt.EventID) bool {
	return r.MHB.Reaches(int(a), int(b))
}

// emitProgramOrder computes Φ_po: per-thread preserved program order under
// the memory model, plus create/join ordering through two dummy EOG nodes.
// It returns the reachability oracle over the fixed order for candidate
// pruning.
func (e *encoder) emitProgramOrder(initEvents, threadEvents, postEvents []*Event) *reachability {
	orderFixed := func(reach *reachability, a, b smt.EventID) {
		e.bd.OrderFixed(a, b)
		reach.addEdge(a, b)
		e.stats.POEdges++
	}

	// Per-thread preserved pairs (positions are indices into the access
	// sequence; fences occupy positions but yield no pairs).
	type pendingEdge struct{ a, b smt.EventID }
	var pending []pendingEdge
	for tid := range e.seqs {
		pairs := memmodel.OrderedPairs(e.opts.Model, e.seqs[tid])
		for _, pr := range pairs {
			a := e.seqEvents[tid][pr[0]]
			b := e.seqEvents[tid][pr[1]]
			if a == nil || b == nil {
				continue // fence endpoints carry no event
			}
			pending = append(pending, pendingEdge{a.ID, b.ID})
		}
	}

	// Create/join dummies. All events (of all threads) were already created,
	// so the dummy ids extend the event id space.
	create := e.bd.NewEvent("create")
	join := e.bd.NewEvent("join")
	reach := newReachability(e.bd.NumEvents())
	for _, ed := range pending {
		orderFixed(reach, ed.a, ed.b)
	}
	for _, ev := range initEvents {
		orderFixed(reach, ev.ID, create)
	}
	for _, ev := range threadEvents {
		orderFixed(reach, create, ev.ID)
		orderFixed(reach, ev.ID, join)
	}
	orderFixed(reach, create, join)
	for _, ev := range postEvents {
		orderFixed(reach, join, ev.ID)
	}
	return reach
}

// emitReadFrom computes Φ_rf, Φ_rf_some and Φ_fr.
func (e *encoder) emitReadFrom(reach *reachability) {
	writesByVar := map[string][]*Event{}
	readsByVar := map[string][]*Event{}
	for _, ev := range e.events {
		if ev.IsWrite {
			writesByVar[ev.Var] = append(writesByVar[ev.Var], ev)
		} else {
			readsByVar[ev.Var] = append(readsByVar[ev.Var], ev)
		}
	}
	vars := make([]string, 0, len(readsByVar))
	for v := range readsByVar { //mapiter:ok keys sorted below
		vars = append(vars, v)
	}
	sort.Strings(vars) // deterministic encoding order

	// Per-read buffers, reused across reads: nothing below keeps them.
	var cands []*Event
	var rfVars, some []smt.Bool
	for _, v := range vars {
		writes := writesByVar[v]
		for _, r := range readsByVar[v] {
			// Candidate writes: those not provably after the read.
			cands = cands[:0]
			for _, w := range writes {
				if e.mhbDropped[[2]smt.EventID{r.ID, w.ID}] {
					// Dropped by the MHB closure fixpoint (checked before the
					// reachability test so drops that the closure's derived
					// edges turned into read-before-write are still
					// attributed to it).
					e.stats.MHBPruned++
					continue
				}
				if reach.reaches(r.ID, w.ID) {
					continue
				}
				if e.prune && e.rfPrunable(r, w, writes, reach) {
					e.stats.RFPruned++
					continue
				}
				if e.flow != nil && e.valueInfeasible(r, w) {
					continue
				}
				cands = append(cands, w)
			}
			if len(cands) == 1 {
				e.noteSingleCandidate(r, cands[0])
			}
			rfVars = rfVars[:0]
			some = append(some[:0], e.bd.Not(r.Guard))
			for _, w := range cands {
				rf := e.bd.NamedBool(core.RFName(r.Thread, r.Index, w.Thread, w.Index))
				rfVars = append(rfVars, rf)
				e.stats.RFVars++
				nrf := e.bd.Not(rf)
				// Value equality, bit by bit (strong unit propagation).
				for bit := 0; bit < e.opts.Width; bit++ {
					rb, wb := r.Val.Bit(bit), w.Val.Bit(bit)
					e.bd.AssertClause(nrf, e.bd.Not(rb), wb)
					e.bd.AssertClause(nrf, rb, e.bd.Not(wb))
				}
				// Read-from order and writer guard.
				e.bd.AssertClause(nrf, e.bd.Before(w.ID, r.ID))
				e.bd.AssertClause(nrf, w.Guard)
				some = append(some, rf)
			}
			// Φ_rf_some: an occurring read takes its value from some write.
			e.bd.AssertClause(some...)

			// Φ_fr: if r reads from w and another write k to the same
			// variable occurs after w, then r is before k.
			for ci, w := range cands {
				nrf := e.bd.Not(rfVars[ci])
				for _, k := range writes {
					if k == w {
						continue
					}
					if reach.reaches(k.ID, w.ID) {
						continue // k is fixed before w: antecedent false
					}
					e.bd.AssertClause(nrf,
						e.bd.Not(e.bd.Before(w.ID, k.ID)),
						e.bd.Not(k.Guard),
						e.bd.Before(r.ID, k.ID))
				}
			}
		}
	}
}

// rfPrunable reports that the rf candidate (r, w) can be dropped without
// changing satisfiability: some intervening "shadow" write w2 to the same
// variable is guaranteed to overwrite w before r can observe it, in every
// execution where r reads at all. Three criteria are checked, in increasing
// reliance on the static analysis; each is justified by a contradiction
// against the encoding's own fr axioms, fixed program-order edges, atomic
// windows and lock fences — see the "Static interference analysis" section
// of DESIGN.md for the full soundness arguments.
func (e *encoder) rfPrunable(r, w *Event, writes []*Event, reach *reachability) bool {
	truth := e.bd.True()

	// (1) Fixed shadow: an unconditional write w2 with w →po w2 →po r over
	// fixed edges. Any model with rf(r,w) must order r before w2 (fr axiom)
	// while the fixed edges order w2 before r — a cycle.
	for _, w2 := range writes {
		if w2 == w || w2.Guard != truth {
			continue
		}
		if reach.reaches(w.ID, w2.ID) && reach.reaches(w2.ID, r.ID) {
			return true
		}
	}

	// (2) Atomic-window shadow: w and an unconditional later write w2 sit in
	// the same atomic window of w's thread, with the window's span covering
	// both. A cross-thread read is excluded from the window, so it is either
	// before the window (before w — contradicts rf's Before(w,r)) or after it
	// (after w2 — contradicts the fr-forced Before(r,w2)).
	if r.Thread != w.Thread {
		for wi := range e.windows {
			wd := &e.windows[wi]
			if wd.thread != w.Thread || !wd.contains(w) {
				continue
			}
			if !reach.reaches(wd.first.ID, w.ID) { // reflexive: covers w == first
				continue
			}
			for _, w2 := range writes {
				if w2 == w || w2.Thread != w.Thread || w2.Guard != truth {
					continue
				}
				if !wd.contains(w2) || !reach.reaches(w.ID, w2.ID) {
					continue
				}
				if reach.reaches(w2.ID, wd.last.ID) { // reflexive: covers w2 == last
					return true
				}
			}
		}
	}

	// (3) Lockset shadow: w is followed (same critical section, same
	// acquisition token, no unlock in between on any path) by an
	// unconditional write w2, and r holds the same mutex through a balanced,
	// unconditional acquisition. Mutual exclusion — itself entailed by the
	// lock encoding's test-and-set windows, fences and fr axioms — orders
	// the two critical sections, and either order contradicts rf(r,w).
	if e.static != nil && r.Thread != w.Thread {
		ar := e.static.Access(r.Thread, r.Index)
		aw := e.static.Access(w.Thread, w.Index)
		if ar != nil && aw != nil {
			for _, tid := range aw.Tokens {
				tok := e.static.Tokens[tid]
				if !tok.Balanced || !tok.Unconditional || !holdsSolid(e.static, ar, tok.Mutex) {
					continue
				}
				for _, w2 := range writes {
					if w2 == w || w2.Thread != w.Thread || w2.Guard != truth {
						continue
					}
					a2 := e.static.Access(w2.Thread, w2.Index)
					if a2 == nil || !hasToken(a2, tid) {
						continue
					}
					if reach.reaches(w.ID, w2.ID) {
						return true
					}
				}
			}
		}
	}
	return false
}

// holdsSolid reports that the access holds the mutex through a balanced,
// unconditional acquisition (it is inside a critical section on mutex in
// every execution where its thread runs).
func holdsSolid(res *analysis.Result, a *analysis.Access, mutex string) bool {
	for _, tid := range a.Tokens {
		tok := res.Tokens[tid]
		if tok.Mutex == mutex && tok.Balanced && tok.Unconditional {
			return true
		}
	}
	return false
}

func hasToken(a *analysis.Access, tid int) bool {
	for _, t := range a.Tokens {
		if t == tid {
			return true
		}
	}
	return false
}

// emitWriteSerialization computes Φ_ws: a total order over same-variable
// writes, one named Boolean per pair, each polarity forcing one direction
// (the paper's ws_{i,k} encoding). With pruning enabled, pairs whose order
// is already fixed by program-order reachability are elided: the EOG's
// fixed edges decide the corresponding clk atom at level 0, so the named
// Boolean and its biconditional clauses are pure overhead (and decision
// noise for the interference strategies).
func (e *encoder) emitWriteSerialization(reach *reachability) {
	writesByVar := map[string][]*Event{}
	for _, ev := range e.events {
		if ev.IsWrite {
			writesByVar[ev.Var] = append(writesByVar[ev.Var], ev)
		}
	}
	vars := make([]string, 0, len(writesByVar))
	for v := range writesByVar { //mapiter:ok keys sorted below
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		writes := writesByVar[v]
		for i := 0; i < len(writes); i++ {
			for j := i + 1; j < len(writes); j++ {
				wi, wj := writes[i], writes[j]
				// With -mhb the relation also carries the closure's derived
				// must edges, which are mirrored into the fixed order, so the
				// same level-0 argument elides those pairs too.
				if (e.prune || e.mhb) && (reach.reaches(wi.ID, wj.ID) || reach.reaches(wj.ID, wi.ID)) {
					e.stats.WSPruned++
					continue
				}
				ws := e.bd.NamedBool(core.WSName(wi.Thread, wi.Index, wj.Thread, wj.Index))
				e.stats.WSVars++
				atom := e.bd.Before(wi.ID, wj.ID)
				e.bd.AssertClause(e.bd.Not(ws), atom)
				e.bd.AssertClause(ws, e.bd.Not(atom))
			}
		}
	}
}

// emitAtomicWindows enforces that no other thread's access to a window's
// variables lands inside the window (atomic sections, lock test-and-sets).
func (e *encoder) emitAtomicWindows() {
	for _, w := range e.windows {
		for _, ev := range e.events {
			if ev.Thread == w.thread || !w.vars[ev.Var] {
				continue
			}
			e.bd.AssertClause(
				e.bd.Not(ev.Guard),
				e.bd.Before(ev.ID, w.first.ID),
				e.bd.Before(w.last.ID, ev.ID))
		}
	}
}
