// Package eog provides event-order-graph utilities: building the EOG of an
// encoded program (optionally extended with the interference edges of a
// satisfying model), cycle detection (the validity criterion for symbolic
// concurrent executions, §3.3 of the paper), and DOT export in the style of
// the paper's Figure 4 (grey write nodes, white read nodes, solid program
// order, dashed interference order).
package eog

import (
	"fmt"
	"sort"
	"strings"

	"zpre/internal/core"
	"zpre/internal/encode"
	"zpre/internal/sat"
	"zpre/internal/smt"
)

// EdgeKind labels the origin of an EOG edge.
type EdgeKind int

// Edge kinds.
const (
	// PO is preserved program order (plus create/join edges).
	PO EdgeKind = iota
	// RF is a read-from edge (write → read).
	RF
	// WS is a write-serialization edge.
	WS
	// FR is a from-read edge (read → overwriting write).
	FR
)

// String renders the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case PO:
		return "po"
	case RF:
		return "rf"
	case WS:
		return "ws"
	case FR:
		return "fr"
	}
	return "?"
}

// Edge is a directed EOG edge.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Node is an EOG node (one memory-access event, or a create/join dummy).
type Node struct {
	ID      int
	Label   string
	Var     string
	IsWrite bool
	Dummy   bool // create/join
}

// Graph is an event order graph.
type Graph struct {
	Nodes []Node
	Edges []Edge
}

// FromVC builds the EOG of an encoded verification condition: the nodes are
// the program's events plus the create/join dummies, the edges the fixed
// (program-order) edges.
func FromVC(vc *encode.VC) *Graph {
	g := &Graph{}
	byID := map[int]*encode.Event{}
	for _, ev := range vc.Events {
		byID[int(ev.ID)] = ev
	}
	n := vc.Builder.NumEvents()
	for i := 0; i < n; i++ {
		if ev, ok := byID[i]; ok {
			g.Nodes = append(g.Nodes, Node{
				ID:      i,
				Label:   fmt.Sprintf("%s%d@t%d", ev.Var, ev.Index, ev.Thread),
				Var:     ev.Var,
				IsWrite: ev.IsWrite,
			})
		} else {
			g.Nodes = append(g.Nodes, Node{ID: i, Label: vc.Builder.EventName(smt.EventID(i)), Dummy: true})
		}
	}
	for _, e := range vc.Builder.FixedEdges() {
		g.Edges = append(g.Edges, Edge{From: int(e[0]), To: int(e[1]), Kind: PO})
	}
	return g
}

// WithModel extends the graph with the ordering decided by a satisfying
// assignment: every interned ordering atom contributes an edge in its model
// direction (this includes the from-read orders derived by Φ_fr), and every
// true rf/ws variable contributes its labelled interference edge. The
// result's topological orders are exactly the valid linearisations of the
// model. Call after a Sat result.
func WithModel(vc *encode.VC, g *Graph) *Graph {
	byThreadIdx := map[[2]int]*encode.Event{}
	for _, ev := range vc.Events {
		byThreadIdx[[2]int{ev.Thread, ev.Index}] = ev
	}
	out := &Graph{Nodes: g.Nodes, Edges: append([]Edge(nil), g.Edges...)}
	for _, atom := range vc.Builder.OrderAtoms() {
		from, to := int(atom.A), int(atom.B)
		if vc.Builder.Solver().Value(atom.Var) != sat.LTrue {
			from, to = to, from
		}
		out.Edges = append(out.Edges, Edge{From: from, To: to, Kind: FR})
	}
	for v, name := range vc.Builder.Names() {
		vi := core.ParseName(name)
		var kind EdgeKind
		switch {
		case vi.Class == core.ClassRFExternal || vi.Class == core.ClassRFInternal:
			kind = RF
		case vi.Class == core.ClassWS:
			kind = WS
		default:
			continue
		}
		if vc.Builder.Solver().Value(sat.Var(v)) != sat.LTrue {
			continue
		}
		a, b, c, d := vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx
		if kind == RF {
			// rf_<rt>_<ri>_<wt>_<wi>: edge write → read.
			r, okR := byThreadIdx[[2]int{a, b}]
			w, okW := byThreadIdx[[2]int{c, d}]
			if okR && okW {
				out.Edges = append(out.Edges, Edge{From: int(w.ID), To: int(r.ID), Kind: RF})
			}
		} else {
			w1, ok1 := byThreadIdx[[2]int{a, b}]
			w2, ok2 := byThreadIdx[[2]int{c, d}]
			if ok1 && ok2 {
				out.Edges = append(out.Edges, Edge{From: int(w1.ID), To: int(w2.ID), Kind: WS})
			}
		}
	}
	return out
}

// FindCycle returns a cycle in the graph as a node sequence (first == last),
// or nil if the graph is acyclic. An acyclic EOG means the execution is a
// valid symbolic concurrent execution (§3.3).
func (g *Graph) FindCycle() []int {
	adj := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	state := make([]int8, len(g.Nodes))
	parent := make([]int, len(g.Nodes))
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var visit func(u int) bool
	visit = func(u int) bool {
		state[u] = 1
		for _, v := range adj[u] {
			if state[v] == 1 {
				// Reconstruct u → ... → v path backwards from u.
				cycle = append(cycle, v)
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				cycle = append(cycle, v)
				// Reverse to walk edge direction.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
			if state[v] == 0 {
				parent[v] = u
				if visit(v) {
					return true
				}
			}
		}
		state[u] = 2
		return false
	}
	for u := range g.Nodes {
		if state[u] == 0 && visit(u) {
			return cycle
		}
	}
	return nil
}

// Acyclic reports whether the EOG has no cycle.
func (g *Graph) Acyclic() bool { return g.FindCycle() == nil }

// TopoOrder returns a topological order of the nodes, or nil if cyclic. For
// a valid execution this is a concrete interleaving (a total order extending
// the symbolic one).
func (g *Graph) TopoOrder() []int {
	indeg := make([]int, len(g.Nodes))
	adj := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	var queue, out []int
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(out) != len(g.Nodes) {
		return nil
	}
	return out
}

// DOT renders the graph in Graphviz format, following the paper's Figure 4
// conventions: grey boxes for writes, white for reads, solid program-order
// edges, dashed interference edges.
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle, style=filled];\n", title)
	for _, n := range g.Nodes {
		fill := "white"
		if n.IsWrite {
			fill = "grey80"
		}
		if n.Dummy {
			fill = "grey95"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, fillcolor=%q];\n", n.ID, n.Label, fill)
	}
	for _, e := range g.Edges {
		style := "solid"
		if e.Kind != PO {
			style = "dashed"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [style=%s, label=%q];\n", e.From, e.To, style, e.Kind)
	}
	b.WriteString("}\n")
	return b.String()
}
