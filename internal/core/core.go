// Package core implements the paper's contribution: the interference
// relation-guided decision order for DPLL(T) (§4).
//
// The frontend names every interference variable in a fixed scheme —
// rf_<readThread>_<readIdx>_<writeThread>_<writeIdx> for read-from variables
// and ws_<thread1>_<idx1>_<thread2>_<idx2> for write-serialization variables —
// and the backend reconstructs the decision order purely from those names,
// exactly as the paper's modified Z3 does (§4.1, §5.3). RFName and WSName
// define the scheme and ParseName inverts it. Names remain the only
// interface between the two sides; ClassifyNames reads them from the
// builder's variable-indexed name table (smt.Builder.Names), so
// classification needs no name → variable map and no sort.
//
// The order is:
//
//	HEURISTIC 1:  interference variables before everything else;
//	              RF variables before WS variables;
//	              external RF (read and write in different threads) before
//	              internal RF;
//	              among RF variables, larger #write (number of candidate
//	              writes of the read event) first.
//
// ZPRE⁻ applies HEURISTIC 1 only; ZPRE applies the full order. When every
// interference variable is assigned, the solver falls back to its default
// VSIDS heuristic (§4.2, Figure 5).
package core

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"zpre/internal/sat"
)

// Class partitions the Boolean variables of the encoded program (§3.2).
type Class int

// Variable classes. RF variables are split by externality as in §4.1.
const (
	// ClassSSA covers program statements, assignments and guards.
	ClassSSA Class = iota
	// ClassOrd covers ordering atoms clk(a) < clk(b).
	ClassOrd
	// ClassRFExternal covers read-from variables whose read and write events
	// belong to different threads.
	ClassRFExternal
	// ClassRFInternal covers read-from variables within a single thread.
	ClassRFInternal
	// ClassWS covers write-serialization variables.
	ClassWS
	// ClassGuard covers branch-condition variables (used by the
	// control-flow heuristic of the paper's "Other Attempts", §5.2).
	ClassGuard
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case ClassSSA:
		return "ssa"
	case ClassOrd:
		return "ord"
	case ClassRFExternal:
		return "rf-external"
	case ClassRFInternal:
		return "rf-internal"
	case ClassWS:
		return "ws"
	case ClassGuard:
		return "guard"
	}
	return "unknown"
}

// Interference reports whether the class is an interference variable class.
func (c Class) Interference() bool {
	return c == ClassRFExternal || c == ClassRFInternal || c == ClassWS
}

// VarInfo is the classification of one named SAT variable.
type VarInfo struct {
	Var   sat.Var
	Name  string
	Class Class

	// Event-pair fields (valid for RF and WS classes): the two event
	// coordinates encoded in the variable name. For RF variables the first
	// pair is the read and the second the write; for WS variables they are
	// the two writes in encoding order.
	ReadThread, ReadIdx, WriteThread, WriteIdx int

	// NumWrites is #write(v): how many candidate writes the read event of an
	// RF variable may read from (computed by grouping RF variables that share
	// a read event). Zero for non-RF variables.
	NumWrites int
}

// RFName is the name of the read-from variable "the read at (readThread,
// readIdx) takes its value from the write at (writeThread, writeIdx)":
// rf_<readThread>_<readIdx>_<writeThread>_<writeIdx>. ParseName inverts it.
func RFName(readThread, readIdx, writeThread, writeIdx int) string {
	return pairName("rf_", readThread, readIdx, writeThread, writeIdx)
}

// WSName is the name of the write-serialization variable ordering the write
// at (thread1, idx1) before the write at (thread2, idx2):
// ws_<thread1>_<idx1>_<thread2>_<idx2>. ParseName inverts it.
func WSName(thread1, idx1, thread2, idx2 int) string {
	return pairName("ws_", thread1, idx1, thread2, idx2)
}

// pairName renders prefix followed by the four coordinates joined by '_',
// with the only allocation being the returned string.
func pairName(prefix string, a, b, c, d int) string {
	var buf [64]byte
	out := append(buf[:0], prefix...)
	out = strconv.AppendInt(out, int64(a), 10)
	out = append(out, '_')
	out = strconv.AppendInt(out, int64(b), 10)
	out = append(out, '_')
	out = strconv.AppendInt(out, int64(c), 10)
	out = append(out, '_')
	out = strconv.AppendInt(out, int64(d), 10)
	return string(out)
}

// ParseName classifies a variable name. Names that do not match the rf_/ws_
// shape are ordering atoms when prefixed ord_, and SSA variables otherwise.
func ParseName(name string) VarInfo {
	vi := VarInfo{Name: name, Class: ClassSSA}
	switch {
	case strings.HasPrefix(name, "rf_"):
		a, b, c, d, ok := parseCoords(name[len("rf_"):])
		if !ok {
			return vi
		}
		vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = a, b, c, d
		if vi.ReadThread == vi.WriteThread {
			vi.Class = ClassRFInternal
		} else {
			vi.Class = ClassRFExternal
		}
	case strings.HasPrefix(name, "ws_"):
		a, b, c, d, ok := parseCoords(name[len("ws_"):])
		if !ok {
			return vi
		}
		vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = a, b, c, d
		vi.Class = ClassWS
	case strings.HasPrefix(name, "ord_"):
		vi.Class = ClassOrd
	case strings.HasPrefix(name, "guard_"):
		vi.Class = ClassGuard
	}
	return vi
}

// parseCoords parses exactly four '_'-separated strconv.Atoi integers, in
// place (no split slice).
func parseCoords(s string) (a, b, c, d int, ok bool) {
	var nums [4]int
	for i := range nums {
		field := s
		if i < len(nums)-1 {
			j := strings.IndexByte(s, '_')
			if j < 0 {
				return 0, 0, 0, 0, false
			}
			field, s = s[:j], s[j+1:]
		} else if strings.IndexByte(s, '_') >= 0 {
			return 0, 0, 0, 0, false
		}
		n, err := strconv.Atoi(field)
		if err != nil {
			return 0, 0, 0, 0, false
		}
		nums[i] = n
	}
	return nums[0], nums[1], nums[2], nums[3], true
}

// ClassifyNames parses a variable-indexed name table (names[v] is the name
// of SAT variable v, "" for unnamed variables; see smt.Builder.Names) and
// computes #write for RF variables by grouping them on the read event
// encoded in the name. The result lists the named variables in variable
// order.
func ClassifyNames(names []string) []VarInfo {
	n := 0
	for _, name := range names {
		if name != "" {
			n++
		}
	}
	infos := make([]VarInfo, 0, n)
	writeCount := map[[2]int]int{}
	for v, name := range names {
		if name == "" {
			continue
		}
		vi := ParseName(name)
		vi.Var = sat.Var(v)
		if vi.Class == ClassRFExternal || vi.Class == ClassRFInternal {
			writeCount[[2]int{vi.ReadThread, vi.ReadIdx}]++
		}
		infos = append(infos, vi)
	}
	for i := range infos {
		vi := &infos[i]
		if vi.Class == ClassRFExternal || vi.Class == ClassRFInternal {
			vi.NumWrites = writeCount[[2]int{vi.ReadThread, vi.ReadIdx}]
		}
	}
	return infos
}

// Classify is ClassifyNames over a name → variable map such as
// smt.Builder.NamedVars, where every variable carries one non-empty name.
// The result is sorted by variable.
func Classify(named map[string]sat.Var) []VarInfo {
	size := 0
	for _, v := range named { //mapiter:ok max is order-independent
		size = max(size, int(v)+1)
	}
	names := make([]string, size)
	for name, v := range named { //mapiter:ok each variable has its own slot
		names[v] = name
	}
	return ClassifyNames(names)
}

// ClassNames maps each classified variable to its class string — the form
// the telemetry layer stamps on decision trace events.
func ClassNames(infos []VarInfo) map[sat.Var]string {
	out := make(map[sat.Var]string, len(infos))
	for _, vi := range infos {
		out[vi.Var] = vi.Class.String()
	}
	return out
}

// PriorTo is the paper's prior_to(v1, v2) algorithm (§4.1): it returns true
// when v1 must be decided before v2. Both arguments are expected to be
// interference variables; for other inputs it returns false.
func PriorTo(v1, v2 VarInfo) bool {
	isRF := func(c Class) bool { return c == ClassRFExternal || c == ClassRFInternal }
	switch {
	case isRF(v1.Class) && v2.Class == ClassWS:
		return true
	case v1.Class == ClassRFExternal && v2.Class == ClassRFInternal:
		return true
	case isRF(v1.Class) && isRF(v2.Class) && v1.Class == v2.Class:
		return v1.NumWrites > v2.NumWrites
	default:
		return false
	}
}

// Strategy selects a decision order.
type Strategy int

// Strategies evaluated by the paper (Table 3).
const (
	// Baseline is the solver's default order (VSIDS + phase saving); the
	// paper's "Z3".
	Baseline Strategy = iota
	// ZPREMinus prioritises interference variables without ranking them
	// (HEURISTIC 1 only).
	ZPREMinus
	// ZPRE applies the full interference decision order.
	ZPRE
	// BranchFirst prioritises branch-condition variables (Chen & He 2018's
	// control-flow heuristic, evaluated in the paper's "Other Attempts":
	// little effect on ConcurrencySafety, where branches are scarce).
	BranchFirst
	// ZPREBranch combines ZPRE's interference order with the branch
	// heuristic as a tie-breaking tail.
	ZPREBranch
	// ZPREStatic extends ZPRE with static conflict scores from the
	// lockset/MHP pre-analysis (internal/analysis): within each class,
	// variables over potentially racy event pairs are decided first, with
	// the paper's #write ranking as the remaining tie-break. Requires
	// Config.Score; without it the order degenerates to ZPRE.
	ZPREStatic
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case ZPREMinus:
		return "zpre-"
	case ZPRE:
		return "zpre"
	case BranchFirst:
		return "branch"
	case ZPREBranch:
		return "zpre+branch"
	case ZPREStatic:
		return "zpre+static"
	}
	return "unknown"
}

// ParseStrategy converts a command-line name to a Strategy.
func ParseStrategy(name string) (Strategy, bool) {
	switch name {
	case "baseline", "z3", "default":
		return Baseline, true
	case "zpre-", "zpreminus", "partial":
		return ZPREMinus, true
	case "zpre", "all":
		return ZPRE, true
	case "branch", "cfg":
		return BranchFirst, true
	case "zpre+branch", "zprebranch":
		return ZPREBranch, true
	case "zpre+static", "zprestatic", "static":
		return ZPREStatic, true
	}
	return Baseline, false
}

// PolarityMode selects how the strategy assigns a value to a decided
// interference variable.
type PolarityMode int

// Polarity modes. The paper assigns a random value (§4.2); PolarityTrue is an
// ablation.
const (
	PolarityRandom PolarityMode = iota
	PolarityTrue
	PolarityFalse
)

// Decider is the enhanced decide() procedure (Figure 5): it serves unassigned
// interference variables in the decision order and defers to the solver's
// default heuristic once they are exhausted. It implements sat.Decider.
type Decider struct {
	order    []sat.Var // interference variables, highest priority first
	cursor   int
	rng      *rand.Rand
	polarity PolarityMode
}

// Config customises NewDecider.
type Config struct {
	// Seed drives the random polarity choice. Runs with the same seed are
	// deterministic.
	Seed int64
	// Polarity selects the value assigned at each interference decision.
	Polarity PolarityMode
	// DisableNumWrites drops the #write ranking from ZPRE (ablation).
	DisableNumWrites bool
	// Score assigns a static conflict score to an interference variable
	// (higher = decided earlier within its class). Consumed by ZPREStatic;
	// typically analysis.Result.PairScore over the event coordinates. Nil
	// means all scores are zero.
	Score func(VarInfo) int
}

// NewDecider builds the decision strategy for the given classified variables.
// It returns nil for Baseline (the solver's default order is used unchanged).
func NewDecider(strategy Strategy, infos []VarInfo, cfg Config) *Decider {
	if strategy == Baseline {
		return nil
	}
	itf := make([]VarInfo, 0, len(infos))
	guards := make([]VarInfo, 0)
	for _, vi := range infos {
		if vi.Class.Interference() {
			itf = append(itf, vi)
		}
		if vi.Class == ClassGuard {
			guards = append(guards, vi)
		}
	}
	if strategy == ZPRE || strategy == ZPREBranch || strategy == ZPREStatic {
		ranked := make([]VarInfo, len(itf))
		copy(ranked, itf)
		if cfg.DisableNumWrites {
			for i := range ranked {
				ranked[i].NumWrites = 0
			}
		}
		if strategy == ZPREStatic {
			score := func(VarInfo) int { return 0 }
			if cfg.Score != nil {
				score = cfg.Score
			}
			scores := make([]int, len(ranked))
			for i := range ranked {
				scores[i] = score(ranked[i])
			}
			idx := make([]int, len(ranked))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				vi, vj := ranked[idx[a]], ranked[idx[b]]
				if ri, rj := classRank(vi.Class), classRank(vj.Class); ri != rj {
					return ri < rj
				}
				if si, sj := scores[idx[a]], scores[idx[b]]; si != sj {
					return si > sj // racy pairs first
				}
				return vi.NumWrites > vj.NumWrites
			})
			out := make([]VarInfo, len(ranked))
			for i, j := range idx {
				out[i] = ranked[j]
			}
			itf = out
		} else {
			sort.SliceStable(ranked, func(i, j int) bool {
				if PriorTo(ranked[i], ranked[j]) {
					return true
				}
				if PriorTo(ranked[j], ranked[i]) {
					return false
				}
				return false // equal priority: keep stable (variable) order
			})
			itf = ranked
		}
	}
	var picked []VarInfo
	switch strategy {
	case BranchFirst:
		picked = guards
	case ZPREBranch:
		picked = append(itf, guards...)
	default:
		picked = itf
	}
	order := make([]sat.Var, len(picked))
	for i, vi := range picked {
		order[i] = vi.Var
	}
	return &Decider{
		order:    order,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		polarity: cfg.Polarity,
	}
}

// classRank orders the interference classes for ZPREStatic: external RF,
// then internal RF, then WS — the same class precedence PriorTo encodes.
func classRank(c Class) int {
	switch c {
	case ClassRFExternal:
		return 0
	case ClassRFInternal:
		return 1
	case ClassWS:
		return 2
	}
	return 3
}

// Next implements sat.Decider: the first unassigned interference variable in
// the decision order, or LitUndef to fall back to VSIDS.
func (d *Decider) Next(value func(sat.Var) sat.LBool) sat.Lit {
	for d.cursor < len(d.order) {
		v := d.order[d.cursor]
		if value(v) == sat.LUndef {
			return sat.MkLit(v, d.pickNeg())
		}
		d.cursor++
	}
	return sat.LitUndef
}

func (d *Decider) pickNeg() bool {
	switch d.polarity {
	case PolarityTrue:
		return false
	case PolarityFalse:
		return true
	default:
		return d.rng.Intn(2) == 1
	}
}

// OnBacktrack implements sat.Decider: assignments were undone, so the scan
// cursor rewinds (priorities are static, so restarting from the front is
// correct; assigned variables are skipped in O(1) each).
func (d *Decider) OnBacktrack() { d.cursor = 0 }

// Order exposes the computed decision order (for tests and inspection).
func (d *Decider) Order() []sat.Var {
	out := make([]sat.Var, len(d.order))
	copy(out, d.order)
	return out
}
