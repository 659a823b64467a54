package rg

import (
	"fmt"
	"sort"
	"strings"

	"zpre/internal/cprog"
)

// outlineLine is one statement of the final-round proof outline: the
// stabilized precondition at the statement, kept as its per-variable hull
// plus disjunct count and rendered only when the outline is formatted.
type outlineLine struct {
	path string
	stmt cprog.Stmt
	sc   *scope
	hull []iv // per variable of sc
	n    int  // disjuncts in the precondition
}

type outlineData struct {
	pi      *progInfo
	model   string
	name    string
	rounds  int
	proved  bool
	asserts []string // "key: proved|UNPROVED"
	rely    [][]*transition
	scopes  []string // scope names in order
	lines   map[string][]outlineLine
}

func (e *engine) noteOutline(sc *scope, path string, s cprog.Stmt, S stateSet) {
	// Loop bodies are revisited during the inner fixpoint; keep only the
	// last (stable) precondition per statement, in first-visit order.
	lines := e.outlines[sc.name]
	i := 0
	for i < len(lines) && lines[i].path != path {
		i++
	}
	if i == len(lines) {
		lines = append(lines, outlineLine{path: path, sc: sc, hull: make([]iv, sc.nVars)})
		e.outlines[sc.name] = lines
	}
	l := &lines[i]
	l.stmt = s
	l.n = len(S)
	for v := range l.hull {
		l.hull[v] = hullOf(S, v)
	}
}

// renderPre renders an outline precondition: the per-variable hull of the
// state set plus its disjunct count; only non-top variables are shown.
func renderPre(l outlineLine, width int) string {
	if l.n == 0 {
		return "unreachable"
	}
	var parts []string
	for v, h := range l.hull {
		if h.IsTop(width) {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", l.sc.names[v], h))
	}
	if len(parts) == 0 {
		parts = append(parts, "top")
	}
	return fmt.Sprintf("{%s} ×%d", strings.Join(parts, " "), l.n)
}

func (e *engine) buildOutline(trans [][]*transition, res *Result) *outlineData {
	od := &outlineData{
		pi:     e.pi,
		model:  e.model.String(),
		name:   e.prog.Name,
		rounds: res.StabilizeIters,
		proved: res.Proved,
		rely:   trans,
		scopes: e.scOrder,
		lines:  map[string][]outlineLine{},
	}
	unproved := map[string]bool{}
	for _, k := range res.Unproved {
		unproved[k] = true
	}
	for _, k := range e.assertOrder {
		status := "proved"
		if unproved[k] {
			status = "UNPROVED"
		}
		od.asserts = append(od.asserts, fmt.Sprintf("%s: %s", k, status))
	}
	for k, v := range e.outlines { //mapiter:ok copied into map keyed identically
		od.lines[k] = v
	}
	return od
}

func renderTrans(t *transition, thread int, pi *progInfo) string {
	var w []string
	for _, wr := range t.writes {
		w = append(w, fmt.Sprintf("%s:=%s", pi.shared[wr.v], wr.img))
	}
	var g []string
	for _, ge := range t.guard {
		g = append(g, fmt.Sprintf("%s∈%s", pi.shared[ge.v], ge.rng))
	}
	s := fmt.Sprintf("%s: t%d writes %s", t.key, thread, strings.Join(w, ","))
	if len(g) > 0 {
		s += " when " + strings.Join(g, "∧")
	}
	if len(t.held) > 0 {
		s += " holding " + strings.Join(t.held, ",")
	}
	if t.composite {
		s += " (composite)"
	}
	return s
}

// FormatOutline renders the final proof outline deterministically: the rely
// transition pool, each scope's statement-by-statement stabilized
// preconditions, the assertion verdicts and the fixpoint iteration count.
func FormatOutline(res *Result) string {
	od := res.outline
	if od == nil {
		return fmt.Sprintf("no outline (bailed=%v)\n", res.Bailed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "program %s model %s width %d\n", od.name, od.model, od.pi.width)
	fmt.Fprintf(&b, "fixpoint rounds %d proved %v\n", od.rounds, od.proved)
	b.WriteString("rely transitions:\n")
	none := true
	for t, ts := range od.rely {
		for _, tr := range ts {
			fmt.Fprintf(&b, "  %s\n", renderTrans(tr, t, od.pi))
			none = false
		}
	}
	if none {
		b.WriteString("  (none)\n")
	}
	for _, sc := range od.scopes {
		lines := od.lines[sc]
		fmt.Fprintf(&b, "outline %s:\n", sc)
		if len(lines) == 0 {
			b.WriteString("  (empty)\n")
		}
		for _, l := range lines {
			fmt.Fprintf(&b, "  [%s] %s  pre %s\n", l.path, renderStmt(l.stmt), renderPre(l, od.pi.width))
		}
	}
	b.WriteString("asserts:\n")
	if len(od.asserts) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, a := range od.asserts {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	return b.String()
}

// RangesSummary renders the invariant ranges deterministically (diagnostic
// output for cmd/racecheck).
func RangesSummary(res *Result) string {
	if res.Ranges == nil {
		return "(no invariants)"
	}
	names := make([]string, 0, len(res.Ranges))
	for n := range res.Ranges { //mapiter:ok keys sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s∈%s", n, res.Ranges[n]))
	}
	return strings.Join(parts, " ")
}

func renderStmt(s cprog.Stmt) string {
	switch st := s.(type) {
	case cprog.Assign:
		return fmt.Sprintf("%s = %s", st.Lhs, renderExpr(st.Rhs))
	case cprog.Local:
		if st.Init != nil {
			return fmt.Sprintf("local %s = %s", st.Name, renderExpr(st.Init))
		}
		return fmt.Sprintf("local %s", st.Name)
	case cprog.Assume:
		return fmt.Sprintf("assume(%s)", renderExpr(st.Cond))
	case cprog.Assert:
		return fmt.Sprintf("assert(%s)", renderExpr(st.Cond))
	case cprog.If:
		return fmt.Sprintf("if (%s)", renderExpr(st.Cond))
	case cprog.While:
		return fmt.Sprintf("while (%s)", renderExpr(st.Cond))
	case cprog.Lock:
		return fmt.Sprintf("lock(%s)", st.Mutex)
	case cprog.Unlock:
		return fmt.Sprintf("unlock(%s)", st.Mutex)
	case cprog.Fence:
		return "fence"
	case cprog.Atomic:
		return "atomic"
	case cprog.Havoc:
		return fmt.Sprintf("havoc %s", st.Name)
	}
	return "?"
}

func renderExpr(e cprog.Expr) string {
	switch x := e.(type) {
	case cprog.Const:
		return fmt.Sprintf("%d", x.Value)
	case cprog.Ref:
		return x.Name
	case cprog.BinOp:
		return fmt.Sprintf("(%s %s %s)", renderExpr(x.L), x.Op, renderExpr(x.R))
	case cprog.UnOp:
		return fmt.Sprintf("%s%s", x.Op, renderExpr(x.X))
	}
	return "?"
}
