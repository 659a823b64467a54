// Package order implements the ordering theory used by the DPLL(T) engine:
// a strict total order over integer event timestamps (the clk(e) values of
// the paper). Atoms are of the form clk(a) < clk(b); asserting an atom true
// inserts the edge a→b into the event order graph (EOG), asserting it false
// inserts b→a (timestamps are pairwise distinct, so ¬(a<b) ⇔ b<a). A partial
// assignment is theory-consistent iff the EOG is acyclic (§3.3 of the paper);
// a cycle is reported as a conflict clause built from the literals whose
// edges form the cycle.
//
// Program-order edges (Φ_po) that hold unconditionally can be added as fixed
// edges; they participate in cycles but never appear in explanations.
package order

import (
	"fmt"

	"zpre/internal/sat"
)

// edge is an outgoing EOG edge. lit is the SAT literal whose assertion
// inserted the edge, or sat.LitUndef for a fixed (program-order) edge.
type edge struct {
	to  int32
	lit sat.Lit
}

// atom records the meaning of a registered SAT variable: true ⇒ a before b.
type atom struct {
	a, b int32
}

// Theory is an ordering theory instance over n events. It implements
// sat.Theory. The zero value is not usable; call New.
type Theory struct {
	n   int
	adj [][]edge // adjacency lists; fixed edges first, asserted edges appended

	atoms       map[sat.Var]atom
	atomOrder   []sat.Var   // registration order (deterministic iteration)
	atomsByNode [][]sat.Var // node -> atoms touching it (for eager propagation)

	trail []int32 // stack of "from" nodes of asserted edges, for popping

	// DFS scratch (stamp-based so no clearing between searches).
	stamp      int32
	mark       []int32
	parentNode []int32
	parentLit  []sat.Lit
	queue      []int32

	eager bool
	dirty map[int32]struct{} // nodes touched since last Propagate (eager mode)

	scratch []sat.Lit
	visit   []int8 // acyclicity checks' DFS state

	stats Stats
}

// Stats are cumulative theory-side counters: how much ordering work the
// DPLL(T) loop asked for (search telemetry; see internal/telemetry).
type Stats struct {
	// Asserts counts atom assertions that reached the theory (edge inserts
	// attempted).
	Asserts uint64
	// Conflicts counts assertions rejected because they closed a cycle.
	Conflicts uint64
	// PathQueries counts reachability searches (the theory's unit of work).
	PathQueries uint64
	// Propagations counts implications emitted by eager propagation.
	Propagations uint64
}

// Stats returns the cumulative theory counters.
func (t *Theory) Stats() Stats { return t.stats }

// New creates an ordering theory over events 0..n-1.
func New(n int) *Theory {
	t := &Theory{
		atoms: make(map[sat.Var]atom),
		dirty: map[int32]struct{}{},
	}
	t.GrowTo(n)
	return t
}

// Reset returns the theory to the state New(0) gives — no events, edges,
// atoms or asserted state, zero counters, eager propagation off — but keeps
// its storage: the adjacency and per-node atom lists, the cleared atom map
// and the search scratch. GrowTo then re-extends into that storage, so a
// theory serving many instances in turn is Reset between them instead of
// being rebuilt.
func (t *Theory) Reset() {
	clear(t.mark)
	for i := range t.adj {
		t.adj[i] = t.adj[i][:0]
		t.atomsByNode[i] = t.atomsByNode[i][:0]
	}
	clear(t.atoms)
	clear(t.dirty)
	*t = Theory{
		adj:         t.adj[:0],
		atoms:       t.atoms,
		atomOrder:   t.atomOrder[:0],
		atomsByNode: t.atomsByNode[:0],
		trail:       t.trail[:0],
		mark:        t.mark[:0],
		parentNode:  t.parentNode[:0],
		parentLit:   t.parentLit[:0],
		queue:       t.queue[:0],
		dirty:       t.dirty,
		scratch:     t.scratch[:0],
		visit:       t.visit[:0],
	}
}

// NumEvents returns the number of events the theory currently covers.
func (t *Theory) NumEvents() int { return t.n }

// GrowTo extends the event space to n events (no-op when n <= NumEvents).
// Existing edges, atoms and asserted state are preserved; the new nodes start
// with no incident edges. This is the incremental-unrolling seam: the next
// bound's events are appended, new fixed edges and atoms registered, and the
// same theory instance (with the solver's learnt state) keeps solving.
func (t *Theory) GrowTo(n int) {
	if n <= t.n {
		return
	}
	// Per-node lists beyond the current length are empty (fresh, or
	// truncated by Reset), so extending within capacity reuses them.
	t.adj = extend(t.adj, n)
	t.atomsByNode = extend(t.atomsByNode, n)
	t.mark = extend(t.mark, n)
	t.parentNode = extend(t.parentNode, n)
	t.parentLit = extend(t.parentLit, n)
	t.n = n
}

// extend returns s lengthened to n. Elements past the old length keep what
// the backing array holds there: zero values, or storage a Reset left empty.
func extend[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// SetEagerPropagation toggles eager theory propagation: after each batch of
// edge insertions, atoms incident to touched nodes whose value is forced by
// reachability are propagated with path explanations. Off by default; the
// paper's solver relies on conflict detection only, and the ablation bench
// measures the difference.
func (t *Theory) SetEagerPropagation(on bool) { t.eager = on }

// AddFixedEdge installs an unconditional a-before-b edge (program order,
// create/join order). Fixed edges are normally added before solving starts;
// the incremental path may also add them between Solve calls (while the
// solver sits at decision level 0), after which the caller must re-derive
// fixed implications and re-check acyclicity (see Acyclic).
func (t *Theory) AddFixedEdge(a, b int32) {
	t.checkNode(a)
	t.checkNode(b)
	t.adj[a] = append(t.adj[a], edge{to: b, lit: sat.LitUndef})
}

// FixedAcyclic reports whether the fixed-edge subgraph is acyclic. A cyclic
// program order means the encoder produced garbage; callers should treat it
// as an error, not an unsat verdict.
func (t *Theory) FixedAcyclic() bool { return t.acyclic(true) }

// Acyclic reports whether the full current graph — fixed edges plus the
// edges of currently asserted atoms — is acyclic. The incremental path calls
// it after adding fixed edges between solves: a root-level asserted atom that
// contradicts a newly fixed order closes a cycle the per-assert check can
// never see again (the atom is already on the trail), so the caller must
// treat a cyclic result as a root-level unsatisfiability.
func (t *Theory) Acyclic() bool { return t.acyclic(false) }

// acyclic runs a DFS cycle check over the fixed edges, or over every edge
// when fixedOnly is false, with its visit state in theory scratch.
func (t *Theory) acyclic(fixedOnly bool) bool {
	t.visit = extend(t.visit[:0], t.n)
	clear(t.visit) // 0 unvisited, 1 on stack, 2 done
	for u := int32(0); u < int32(t.n); u++ {
		if t.visit[u] == 0 && !t.visitAcyclic(u, fixedOnly) {
			return false
		}
	}
	return true
}

func (t *Theory) visitAcyclic(u int32, fixedOnly bool) bool {
	t.visit[u] = 1
	for _, e := range t.adj[u] {
		if fixedOnly && e.lit != sat.LitUndef {
			continue
		}
		switch t.visit[e.to] {
		case 1:
			return false
		case 0:
			if !t.visitAcyclic(e.to, fixedOnly) {
				return false
			}
		}
	}
	t.visit[u] = 2
	return true
}

// RegisterAtom declares that SAT variable v means clk(a) < clk(b).
func (t *Theory) RegisterAtom(v sat.Var, a, b int32) {
	t.checkNode(a)
	t.checkNode(b)
	if a == b {
		panic("order: atom over a single event")
	}
	if _, seen := t.atoms[v]; !seen {
		t.atomOrder = append(t.atomOrder, v)
	}
	t.atoms[v] = atom{a, b}
	t.atomsByNode[a] = append(t.atomsByNode[a], v)
	t.atomsByNode[b] = append(t.atomsByNode[b], v)
}

// Atom returns the events of a registered atom and whether v is registered.
func (t *Theory) Atom(v sat.Var) (a, b int32, ok bool) {
	at, ok := t.atoms[v]
	return at.a, at.b, ok
}

func (t *Theory) checkNode(a int32) {
	if a < 0 || int(a) >= t.n {
		panic(fmt.Sprintf("order: event %d out of range [0,%d)", a, t.n))
	}
}

// Relevant implements sat.Theory.
func (t *Theory) Relevant(v sat.Var) bool {
	_, ok := t.atoms[v]
	return ok
}

// Assert implements sat.Theory: it inserts the edge induced by l and returns
// a conflict clause if that closes a cycle. On conflict the edge is not kept.
func (t *Theory) Assert(l sat.Lit) []sat.Lit {
	at, ok := t.atoms[l.Var()]
	if !ok {
		return nil
	}
	t.stats.Asserts++
	from, to := at.a, at.b
	if l.IsNeg() {
		from, to = to, from
	}
	// A cycle exists iff `to` already reaches `from`.
	if t.findPath(to, from) {
		t.stats.Conflicts++
		confl := t.scratch[:0]
		confl = append(confl, l.Neg())
		confl = t.appendPathLits(confl, to, from)
		t.scratch = confl
		return confl
	}
	t.adj[from] = append(t.adj[from], edge{to: to, lit: l})
	t.trail = append(t.trail, from)
	if t.eager {
		t.dirty[from] = struct{}{}
		t.dirty[to] = struct{}{}
	}
	return nil
}

// AssertedCount implements sat.Theory.
func (t *Theory) AssertedCount() int { return len(t.trail) }

// PopToCount implements sat.Theory: undoes asserted edges beyond the first n.
func (t *Theory) PopToCount(n int) {
	for len(t.trail) > n {
		from := t.trail[len(t.trail)-1]
		t.trail = t.trail[:len(t.trail)-1]
		t.adj[from] = t.adj[from][:len(t.adj[from])-1]
	}
}

// findPath runs a DFS from src looking for dst over all current edges,
// recording parent pointers for explanation extraction.
func (t *Theory) findPath(src, dst int32) bool {
	t.stats.PathQueries++
	t.stamp++
	if t.stamp == 0 { // wrapped; reset marks
		for i := range t.mark {
			t.mark[i] = 0
		}
		t.stamp = 1
	}
	t.queue = t.queue[:0]
	t.queue = append(t.queue, src)
	t.mark[src] = t.stamp
	t.parentNode[src] = -1
	for len(t.queue) > 0 {
		u := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		if u == dst {
			return true
		}
		for _, e := range t.adj[u] {
			if t.mark[e.to] == t.stamp {
				continue
			}
			t.mark[e.to] = t.stamp
			t.parentNode[e.to] = u
			t.parentLit[e.to] = e.lit
			if e.to == dst {
				return true
			}
			t.queue = append(t.queue, e.to)
		}
	}
	return false
}

// appendPathLits appends the negations of the literals of the edges on the
// most recent findPath(src,dst) path. Fixed edges contribute nothing.
func (t *Theory) appendPathLits(out []sat.Lit, src, dst int32) []sat.Lit {
	for u := dst; u != src; u = t.parentNode[u] {
		if l := t.parentLit[u]; l != sat.LitUndef {
			out = append(out, l.Neg())
		}
	}
	return out
}

// Propagate implements sat.Theory. In eager mode it scans atoms incident to
// recently touched nodes and emits implications forced by reachability; the
// default mode never propagates (conflicts do all the pruning, as in the
// paper's description of the EOG check).
func (t *Theory) Propagate() []sat.TheoryImplication {
	if !t.eager || len(t.dirty) == 0 {
		return nil
	}
	var imps []sat.TheoryImplication
	emitted := map[sat.Var]struct{}{}
	for node := range t.dirty {
		for _, v := range t.atomsByNode[node] {
			if _, done := emitted[v]; done {
				continue
			}
			at := t.atoms[v]
			if t.findPath(at.a, at.b) {
				reason := []sat.Lit{sat.PosLit(v)}
				reason = t.appendPathLits(reason, at.a, at.b)
				if len(reason) >= 2 {
					imps = append(imps, sat.TheoryImplication{Lit: sat.PosLit(v), Reason: reason})
					emitted[v] = struct{}{}
				}
			} else if t.findPath(at.b, at.a) {
				reason := []sat.Lit{sat.NegLit(v)}
				reason = t.appendPathLits(reason, at.b, at.a)
				if len(reason) >= 2 {
					imps = append(imps, sat.TheoryImplication{Lit: sat.NegLit(v), Reason: reason})
					emitted[v] = struct{}{}
				}
			}
		}
	}
	t.dirty = map[int32]struct{}{}
	t.stats.Propagations += uint64(len(imps))
	return imps
}

// FinalCheck implements sat.Theory. Consistency is maintained eagerly on
// every Assert, so a full assignment that survived is always consistent.
func (t *Theory) FinalCheck() []sat.Lit { return nil }

// FixedImplication is an atom whose value is forced by fixed edges alone.
type FixedImplication struct {
	Lit sat.Lit // the forced literal
}

// FixedImplications resolves, before solving, every atom already decided by
// the fixed-edge subgraph. The caller must install each returned literal as a
// unit clause; the theory cannot explain fixed-only implications mid-search
// (explanations would be empty), so they must be level-0 facts. The result is
// in atom-registration order, so repeated calls are deterministic and the
// incremental path can diff against previously emitted units.
func (t *Theory) FixedImplications() []FixedImplication {
	var out []FixedImplication
	for _, v := range t.atomOrder {
		at := t.atoms[v]
		if t.findFixedPath(at.a, at.b) {
			out = append(out, FixedImplication{Lit: sat.PosLit(v)})
		} else if t.findFixedPath(at.b, at.a) {
			out = append(out, FixedImplication{Lit: sat.NegLit(v)})
		}
	}
	return out
}

// findFixedPath is findPath restricted to fixed edges.
func (t *Theory) findFixedPath(src, dst int32) bool {
	t.stamp++
	if t.stamp == 0 {
		for i := range t.mark {
			t.mark[i] = 0
		}
		t.stamp = 1
	}
	t.queue = t.queue[:0]
	t.queue = append(t.queue, src)
	t.mark[src] = t.stamp
	for len(t.queue) > 0 {
		u := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		for _, e := range t.adj[u] {
			if e.lit != sat.LitUndef || t.mark[e.to] == t.stamp {
				continue
			}
			if e.to == dst {
				return true
			}
			t.mark[e.to] = t.stamp
			t.queue = append(t.queue, e.to)
		}
	}
	return false
}
