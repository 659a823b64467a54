package sat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// instance is a CNF over n variables plus the assumptions it is solved
// under.
type instance struct {
	n       int
	clauses [][]Lit
	assumps []Lit
}

// load creates the instance's variables in s and adds its clauses.
func (in instance) load(s *Solver) {
	for s.NVars() < in.n {
		s.NewVar()
	}
	for _, c := range in.clauses {
		s.AddClause(c...)
	}
}

// outcome is everything observable about one solve: the verdict, the
// model over every variable, the conflict core and the work counters.
type outcome struct {
	status  Status
	model   []LBool
	core    []Lit
	stats   Stats
	nVars   int
	nClause int
	mem     int64
}

func solveOutcome(s *Solver, in instance) outcome {
	st := s.SolveWithAssumptions(in.assumps...)
	out := outcome{status: st, core: s.ConflictCore(), stats: s.Stats(),
		nVars: s.NVars(), nClause: s.NClauses(), mem: s.MemApprox()}
	for v := 0; v < s.NVars(); v++ {
		out.model = append(out.model, s.Value(Var(v)))
	}
	return out
}

func (o outcome) equal(p outcome) bool {
	return o.status == p.status && slices.Equal(o.model, p.model) &&
		slices.Equal(o.core, p.core) && o.stats == p.stats &&
		o.nVars == p.nVars && o.nClause == p.nClause && o.mem == p.mem
}

// checkResetMatchesNew solves a on a solver, Resets it, solves b, and
// requires every observable of the b solve to equal those of a solver
// fresh from New solving b. configure, when non-nil, is applied to the
// first solver before a, to check Reset restores the defaults. With
// noInprocess, both solvers solve b without inprocessing, whose watch
// rebuild would otherwise hide stale watch lists.
func checkResetMatchesNew(t *testing.T, a, b instance, configure func(*Solver), noInprocess bool) {
	t.Helper()
	s := New()
	if configure != nil {
		configure(s)
	}
	a.load(s)
	s.SolveWithAssumptions(a.assumps...)
	s.Reset()
	f := New()
	if noInprocess {
		s.Inprocessing, f.Inprocessing = InprocessOff, InprocessOff
	}
	b.load(s)
	got := solveOutcome(s, b)
	b.load(f)
	want := solveOutcome(f, b)
	if !got.equal(want) {
		t.Fatalf("solve after Reset differs from a new solver:\n got  %+v\n want %+v", got, want)
	}
}

// config is the solver's exported configuration, comparable with ==.
type config struct {
	Theory          Theory
	Decider         Decider
	MaxConflicts    uint64
	MaxDecisions    uint64
	MaxMemoryBytes  int64
	Deadline        time.Time
	Stop            <-chan struct{}
	Proof           ProofRecorder
	Tracer          Tracer
	Timings         *SearchTimings
	Reduce          ReducePolicy
	Inprocessing    InprocessMode
	ChronoThreshold int
}

func configOf(s *Solver) config {
	return config{s.Theory, s.Decider, s.MaxConflicts, s.MaxDecisions, s.MaxMemoryBytes,
		s.Deadline, s.Stop, s.Proof, s.Tracer, s.Timings, s.Reduce, s.Inprocessing, s.ChronoThreshold}
}

// randomInstance is a random 3-SAT instance near the phase transition, with
// a few random assumptions, so solving it takes real search.
func randomInstance(rng *rand.Rand, n int) instance {
	in := instance{n: n}
	lit := func() Lit { return MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1) }
	for i := 0; i < n*42/10; i++ {
		in.clauses = append(in.clauses, []Lit{lit(), lit(), lit()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		in.clauses = append(in.clauses, []Lit{lit()})
	}
	for i := rng.Intn(4); i > 0; i-- {
		in.assumps = append(in.assumps, lit())
	}
	return in
}

// reconfigure moves every exported setting off its default.
func reconfigure(s *Solver) {
	stop := make(chan struct{})
	s.Theory = nil
	s.MaxConflicts = 1 << 40
	s.MaxDecisions = 1 << 40
	s.MaxMemoryBytes = 1 << 40
	s.Deadline = time.Now().Add(time.Hour)
	s.Stop = stop
	s.Proof = &countingRecorder{}
	s.Tracer = nopTracer{}
	s.Timings = &SearchTimings{}
	s.Reduce = ReduceLegacyActivity
	s.Inprocessing = InprocessOff
	s.ChronoThreshold = -1
}

type countingRecorder struct{ n int }

func (r *countingRecorder) Input([]Lit)       { r.n++ }
func (r *countingRecorder) Learnt([]Lit)      { r.n++ }
func (r *countingRecorder) Deleted([]Lit)     { r.n++ }
func (r *countingRecorder) TheoryLemma([]Lit) { r.n++ }

type nopTracer struct{}

func (nopTracer) Decision(Lit, int, DecisionSource) {}
func (nopTracer) Propagation(Lit)                   {}
func (nopTracer) Conflict(ConflictInfo)             {}
func (nopTracer) TheoryConflict(int)                {}
func (nopTracer) TheoryPropagation(Lit)             {}
func (nopTracer) Restart(uint64)                    {}
func (nopTracer) ReduceDB(int, int)                 {}
func (nopTracer) Inprocess(int, int)                {}

// TestResetMatchesNew: over random instance pairs of different sizes
// (a larger first instance leaves capacity behind, a smaller one forces
// growth), and with the first solver configured away from every default,
// the second solve after Reset is indistinguishable from a new solver's.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		a := randomInstance(rng, 20+rng.Intn(100))
		b := randomInstance(rng, 20+rng.Intn(100))
		var configure func(*Solver)
		if i%2 == 1 {
			configure = reconfigure
		}
		checkResetMatchesNew(t, a, b, configure, i%4 >= 2)
	}
}

// TestResetRestoresDefaults: Reset restores every exported setting and
// every counter to New's values.
func TestResetRestoresDefaults(t *testing.T) {
	s := New()
	reconfigure(s)
	randomInstance(rand.New(rand.NewSource(2)), 50).load(s)
	s.Solve()
	s.Reset()
	if got, want := configOf(s), configOf(New()); got != want {
		t.Errorf("configuration after Reset:\n got  %+v\n want %+v", got, want)
	}
	if s.NVars() != 0 || s.NClauses() != 0 || s.Stats() != (Stats{}) || !s.Okay() ||
		s.MemApprox() != 0 || s.LastStop() != StopNone {
		t.Errorf("state after Reset: vars=%d clauses=%d stats=%+v ok=%v mem=%d stop=%v",
			s.NVars(), s.NClauses(), s.Stats(), s.Okay(), s.MemApprox(), s.LastStop())
	}
}

// TestResetStateEqualsNew: after a long search has moved every counter,
// Reset leaves each field of the solver equal to a new solver's — scalars
// equal, slices and maps empty — and every watch list within the retained
// capacity empty, which NewVar relies on when it re-extends the slice.
// Two fields are scratch whose length carries no state: the watch slab's
// unused tail and inprocessing's buffers, which are sized before each use.
func TestResetStateEqualsNew(t *testing.T) {
	s := New()
	in := randomInstance(rand.New(rand.NewSource(4)), 200)
	in.load(s)
	s.Solve()
	if s.Stats().Conflicts < 1000 {
		t.Fatalf("instance too easy to move every counter: %d conflicts", s.Stats().Conflicts)
	}
	s.Reset()
	sameState(t, "Solver", reflect.ValueOf(s).Elem(), reflect.ValueOf(New()).Elem())
	for i, ws := range s.watches[:cap(s.watches)] {
		if len(ws) != 0 {
			t.Errorf("watch list %d beyond the live length holds %d watchers", i, len(ws))
		}
	}
}

// sameState compares got with want field by field: slices and maps by
// length only (Reset keeps capacity and contents beyond the length),
// pointers by what they point to, everything else by value.
func sameState(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name := got.Type().Field(i).Name
			if path == "Solver" && (name == "watchSlab" || name == "ip") {
				continue
			}
			sameState(t, path+"."+name, got.Field(i), want.Field(i))
		}
	case reflect.Pointer:
		if got.IsNil() != want.IsNil() {
			t.Errorf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		} else if !got.IsNil() {
			sameState(t, path, got.Elem(), want.Elem())
		}
	case reflect.Slice, reflect.Map:
		if got.Len() != want.Len() {
			t.Errorf("%s: length %d, want %d", path, got.Len(), want.Len())
		}
	case reflect.Interface, reflect.Chan, reflect.Func:
		if got.IsNil() != want.IsNil() {
			t.Errorf("%s: nil %v, want nil %v", path, got.IsNil(), want.IsNil())
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			t.Errorf("%s = %v, want %v", path, got.Bool(), want.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			t.Errorf("%s = %d, want %d", path, got.Int(), want.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if got.Uint() != want.Uint() {
			t.Errorf("%s = %d, want %d", path, got.Uint(), want.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if got.Float() != want.Float() {
			t.Errorf("%s = %v, want %v", path, got.Float(), want.Float())
		}
	default:
		t.Fatalf("%s: kind %v not compared", path, got.Kind())
	}
}

// TestResetUnsatSolverIsUsable: a solver whose formula became trivially
// unsatisfiable is satisfiable again after Reset.
func TestResetUnsatSolverIsUsable(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	s.AddClause(NegLit(v))
	if s.Solve() != Unsat {
		t.Fatal("contradiction not unsat")
	}
	s.Reset()
	v = s.NewVar()
	s.AddClause(NegLit(v))
	if s.Solve() != Sat || s.Value(v) != LFalse {
		t.Fatal("solver unusable after Reset")
	}
}

// TestResetReusesStorage: rebuilding and solving an instance on a warmed,
// Reset solver allocates only a small fraction of what a new solver does —
// the arena, clause lists, watch lists, per-variable arrays and
// inprocessing scratch are all reused.
func TestResetReusesStorage(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(3)), 150)
	in.assumps = nil
	fresh := allocsPerCall(5, func() {
		s := New()
		in.load(s)
		s.Solve()
	})
	s := New()
	reused := allocsPerCall(5, func() {
		s.Reset()
		in.load(s)
		s.Solve()
	})
	if reused > fresh/10 {
		t.Errorf("solve on a Reset solver: %.1f allocations, a new solver %.1f; want at most a tenth", reused, fresh)
	}
}

// decodeInstance reads one instance from the fuzz input: a variable-count
// byte (2..12), a clause-count byte, each clause as a length byte (1..4)
// and that many literal bytes (see decodeLit), then an assumption-count
// byte (0..3) and the assumption literals. It returns the unread rest.
func decodeInstance(data []byte) (instance, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	in := instance{n: 2 + int(next())%11}
	for c := int(next()) % 48; c > 0; c-- {
		lits := make([]Lit, 1+int(next())%4)
		for i := range lits {
			lits[i] = decodeLit(next(), in.n)
		}
		in.clauses = append(in.clauses, lits)
	}
	for a := int(next()) % 4; a > 0; a-- {
		in.assumps = append(in.assumps, decodeLit(next(), in.n))
	}
	return in, data
}

// FuzzSolverReset decodes two instances A and B and a configuration byte
// for the first solver. It solves A, Resets the solver, solves B, and
// requires the same status, model, conflict core and Stats as a new
// solver solving B.
func FuzzSolverReset(f *testing.F) {
	f.Add([]byte{0, 3, 5, 2, 0, 17, 1, 1, 18, 1, 0, 7, 10, 2, 1, 2, 3, 2, 16, 17, 1, 18})
	f.Add([]byte{1, 9, 40, 2, 1, 2, 3, 2, 17, 3, 19, 4, 1, 5, 16, 0, 2, 1, 2, 18, 3,
		0, 1, 21, 3, 5, 6, 7, 2, 22, 23, 2, 33, 34, 2, 48, 49, 3, 1, 17, 33, 1, 2})
	f.Add([]byte{2, 10, 47, 3, 0, 1, 2, 3, 16, 17, 18, 3, 3, 4, 5, 3, 19, 20, 21, 3, 6, 7, 8,
		3, 22, 23, 24, 2, 0, 16, 2, 1, 17, 0, 4, 6, 3, 1, 2, 3, 3, 17, 18, 19, 2, 1, 17, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		cfg := data[0]
		a, rest := decodeInstance(data[1:])
		b, _ := decodeInstance(rest)
		var configure func(*Solver)
		if cfg&1 == 1 {
			configure = reconfigure
		}
		checkResetMatchesNew(t, a, b, configure, cfg&2 != 0)
	})
}
