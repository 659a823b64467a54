package zpre

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

// recycleQuery is one Verify call of the recycling tests.
type recycleQuery struct {
	name string
	prog *cprog.Program
	opts Options
}

// recycleMix is a deterministic, shuffled mix of corpus queries: every
// model, widths 8 and 16, all four strategies, plus one query each for a
// checked run, an exhausted decision budget, a cancelled context, a run
// the rely-guarantee engine proves, and the prune+dataflow+MHB stack.
func recycleMix(t *testing.T) []recycleQuery {
	t.Helper()
	corpus := svcomp.All()
	strategies := []core.Strategy{Baseline, ZPREMinus, ZPRE, ZPREStatic}
	var qs []recycleQuery
	for i, b := range corpus {
		if i%5 != 0 {
			continue
		}
		m := memmodel.All()[i%3]
		o := Options{
			Model:    m,
			Strategy: strategies[(i/5)%4],
			Unroll:   1 + (i/3)%2,
			Width:    8 << ((i / 7) % 2),
			Seed:     1,
		}
		qs = append(qs, recycleQuery{fmt.Sprintf("%s/%s@%v", b.Subcategory, b.Name, m), b.Program, o})
	}
	byName := map[string]*cprog.Program{}
	for _, b := range corpus {
		byName[b.Subcategory+"/"+b.Name] = b.Program
	}
	prog := func(name string) *cprog.Program {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("corpus has no %s", name)
		}
		return p
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	qs = append(qs,
		recycleQuery{"checked", prog("lit/peterson"),
			Options{Model: TSO, Strategy: ZPRE, Unroll: 2, Seed: 1, Check: true}},
		recycleQuery{"decision-budget", prog("ext/incr_lock_safe_5"),
			Options{Model: SC, Strategy: Baseline, Seed: 1, MaxDecisions: 2}},
		recycleQuery{"cancelled", prog("ext/incr_lock_safe_5"),
			Options{Model: PSO, Strategy: ZPRE, Seed: 1, Context: cancelled}},
		recycleQuery{"facts", prog("lit/fig2"),
			Options{Model: PSO, Strategy: ZPREStatic, Unroll: 2, Seed: 1, StaticPrune: true, Dataflow: true, MHB: true}},
	)
	proved := false
	for _, b := range corpus {
		o := Options{Model: SC, Strategy: ZPRE, Seed: 1, RG: true}
		if res, err := pipeline.Prove(b.Program, o); err == nil && res.Proved {
			qs = append(qs, recycleQuery{"rg-proved " + b.Name, b.Program, o})
			proved = true
			break
		}
	}
	if !proved {
		t.Fatal("no corpus program is proved by the rely-guarantee engine")
	}
	rand.New(rand.NewSource(16)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// withoutTimings zeroes a report's wall-clock fields.
func withoutTimings(r Report) Report {
	r.SolveTime, r.EncodeTime = 0, 0
	r.SearchTimings = sat.SearchTimings{}
	r.EncodeStats.StaticTime, r.EncodeStats.DataflowTime = 0, 0
	return r
}

// freshReports runs every query on never-pooled storage. sync.Pool drops
// its contents over two collections, and pipeline.Run's instances are not
// released here, so nothing is put back: each query's builder, solver,
// theory and decide workspace are newly constructed.
func freshReports(t *testing.T, qs []recycleQuery) []Report {
	t.Helper()
	runtime.GC()
	runtime.GC()
	out := make([]Report, len(qs))
	for i, q := range qs {
		res, _, err := pipeline.Run(q.prog, q.opts)
		if err == nil {
			err = res.CheckErr
		}
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		out[i] = withoutTimings(report(res))
	}
	return out
}

// TestRecycledVerifyMatchesFresh runs a shuffled mix of queries through
// Verify, which recycles each instance's storage into the next, and the
// same queries on never-pooled storage: the reports must be identical
// apart from timings.
func TestRecycledVerifyMatchesFresh(t *testing.T) {
	qs := recycleMix(t)
	want := freshReports(t, qs)
	// The special queries must end the way they are meant to, or the mix
	// would not exercise their paths.
	for i, q := range qs {
		r := want[i]
		bad := false
		switch {
		case q.name == "checked":
			bad = !r.ProofChecked
		case q.name == "decision-budget":
			bad = r.Stop != sat.StopDecisions
		case q.name == "cancelled":
			bad = r.Stop != sat.StopCancelled
		case q.name == "facts":
			bad = r.EncodeStats.MHBFixedRF+r.EncodeStats.RFPruned+r.EncodeStats.ValuePruned == 0
		case strings.HasPrefix(q.name, "rg-proved"):
			bad = !r.RGProved
		}
		if bad {
			t.Fatalf("%s: fresh report %+v does not exercise its path", q.name, r)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			rep, err := Verify(q.prog, q.opts)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			if got := withoutTimings(rep); got != want[i] {
				t.Fatalf("pass %d %s: recycled report differs:\n got  %+v\n want %+v", pass, q.name, got, want[i])
			}
		}
	}
}

// TestRecycledVerifyConcurrent is TestRecycledVerifyMatchesFresh with four
// goroutines sharing the pools, the zpred portfolio's pattern. Run it with
// -race.
func TestRecycledVerifyConcurrent(t *testing.T) {
	qs := recycleMix(t)
	want := freshReports(t, qs)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range qs {
				i := (k + w*len(qs)/workers) % len(qs)
				rep, err := Verify(qs[i].prog, qs[i].opts)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", qs[i].name, err)
					return
				}
				if got := withoutTimings(rep); got != want[i] {
					errs <- fmt.Errorf("worker %d %s: recycled report differs:\n got  %+v\n want %+v", w, qs[i].name, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVCDoubleRelease: releasing an instance twice pools its storage once,
// so two instances alive together never share a builder and both still
// verify exactly like fresh ones.
func TestVCDoubleRelease(t *testing.T) {
	qs := recycleMix(t)[:2]
	want := freshReports(t, qs)
	vc, err := pipeline.Encode(qs[0].prog, qs[0].opts)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Decide(vc, qs[0].opts)
	vc.Release()
	vc.Release()
	type instance struct {
		res pipeline.Result
		vc  *encode.VC
	}
	var live [2]instance
	for i, q := range qs {
		res, vc, err := pipeline.Run(q.prog, q.opts)
		if err != nil {
			t.Fatal(err)
		}
		live[i] = instance{res, vc}
	}
	if live[0].vc != nil && live[1].vc != nil && live[0].vc.Builder.Solver() == live[1].vc.Builder.Solver() {
		t.Fatal("two live instances share one solver after a double Release")
	}
	if live[0].vc != nil && live[1].vc != nil && live[0].vc.DecideWorkspace() == live[1].vc.DecideWorkspace() {
		t.Fatal("two live instances share one decide workspace after a double Release")
	}
	for i, inst := range live {
		if got := withoutTimings(report(inst.res)); got != want[i] {
			t.Errorf("%s: report after a double Release differs:\n got  %+v\n want %+v", qs[i].name, got, want[i])
		}
		if inst.vc != nil {
			inst.vc.Release()
		}
	}
}

// verifyAllocBound is the heap bytes a warmed Verify may allocate per call
// on the BenchmarkEncode programs (see TestVerifyAllocs). Recycling brought
// the figure from about 140 KB, when every query built its solver, theory,
// builder and decider afresh, to about 11 KB (Go 1.24, amd64).
const verifyAllocBound = 32 << 10

// TestVerifyAllocs guards the recycling of solving storage: once the pools
// are warm, Verify on the five BenchmarkEncode programs (bound 2, TSO,
// width 8) allocates at most verifyAllocBound bytes per call.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled storage at random")
	}
	names := []string{"lit/peterson", "lit/fig2", "pthread/incr_lock_safe", "wmm/seqlock", "ldv-races/refcount_race"}
	byName := map[string]*cprog.Program{}
	for _, b := range svcomp.All() {
		byName[b.Subcategory+"/"+b.Name] = b.Program
	}
	opts := Options{Model: TSO, Strategy: ZPRE, Unroll: 2, Width: 8, Seed: 1}
	verifyAll := func() {
		for _, name := range names {
			p, ok := byName[name]
			if !ok {
				t.Fatalf("corpus has no %s", name)
			}
			if _, err := Verify(p, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	verifyAll()
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		verifyAll()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(names))
	t.Logf("warmed Verify: %.0f bytes per call", perCall)
	if perCall > verifyAllocBound {
		t.Errorf("warmed Verify allocates %.0f bytes per call, want at most %d", perCall, verifyAllocBound)
	}
}
