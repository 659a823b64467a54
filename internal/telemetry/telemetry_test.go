package telemetry

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"zpre/internal/sat"
)

// php loads the n+1-pigeons-into-n-holes family: small, unsat, and
// conflict-heavy enough to exercise learning and restarts.
func php(s *sat.Solver, n int) {
	vars := make([][]sat.Var, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]sat.Var, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]sat.Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = sat.PosLit(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
			}
		}
	}
}

// traceSolve runs php(n) with a SolverTracer over a MemorySink and returns
// the recorded events.
func traceSolve(t *testing.T, n, every int) []Event {
	t.Helper()
	s := sat.New()
	sink := &MemorySink{}
	tr := NewSolverTracer(sink, TracerOptions{
		Task:     "php",
		Strategy: "baseline",
		Model:    "sc",
		Every:    every,
	})
	s.Tracer = tr
	php(s, n)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("php(%d) = %v, want Unsat", n, got)
	}
	if err := tr.Close(s.Stats()); err != nil {
		t.Fatalf("close: %v", err)
	}
	return sink.Events
}

// TestTraceCrossCheck runs an unsampled solve and demands the full
// exactness contract: summary counts == solver stats == replayed events.
func TestTraceCrossCheck(t *testing.T) {
	events := traceSolve(t, 6, 1)
	rep, err := AnalyzeTrace(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampled {
		t.Fatal("unsampled trace reported as sampled")
	}
	if err := rep.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Counts.Conflicts == 0 {
		t.Fatal("degenerate trace: no conflicts")
	}
	// An unknown-class decision must trace as "anon", not vanish.
	var classed uint64
	for _, n := range rep.Replayed.ByClass {
		classed += n
	}
	if classed != rep.Replayed.Decisions {
		t.Fatalf("class histogram covers %d of %d decisions", classed, rep.Replayed.Decisions)
	}
}

// TestTraceSampling subsamples heavily and checks the two halves of the
// sampling contract: fewer raw events, identical summary counts.
func TestTraceSampling(t *testing.T) {
	full := traceSolve(t, 6, 1)
	sampled := traceSolve(t, 6, 10)
	if len(sampled) >= len(full) {
		t.Fatalf("sampling did not shrink the trace: %d vs %d events", len(sampled), len(full))
	}
	repF, err := AnalyzeTrace(full, 10)
	if err != nil {
		t.Fatal(err)
	}
	repS, err := AnalyzeTrace(sampled, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !repS.Sampled {
		t.Fatal("sampled trace not flagged as sampled")
	}
	// The search is deterministic, so exact totals must agree.
	cs, cf := repS.Summary.Counts, repF.Summary.Counts
	if cs.Decisions != cf.Decisions || cs.Propagations != cf.Propagations ||
		cs.TheoryProps != cf.TheoryProps || cs.Conflicts != cf.Conflicts ||
		cs.TheoryConfl != cf.TheoryConfl || cs.Restarts != cf.Restarts ||
		cs.Reductions != cf.Reductions {
		t.Fatalf("sampled summary %+v != full summary %+v", cs, cf)
	}
	if err := repS.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	// Replayed decision count reflects the thinning.
	if repS.Replayed.Decisions >= repF.Replayed.Decisions {
		t.Fatalf("sampled replayed decisions %d not fewer than %d",
			repS.Replayed.Decisions, repF.Replayed.Decisions)
	}
}

// TestTraceRoundTrip serialises a real trace through the JSONL sink and
// parses it back; the replay must survive the encode/decode unchanged.
func TestTraceRoundTrip(t *testing.T) {
	events := traceSolve(t, 5, 1)

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for i := range events {
		if err := sink.Emit(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip lost events: %d -> %d", len(events), len(back))
	}
	rep, err := AnalyzeTrace(back, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CrossCheck(); err != nil {
		t.Fatal(err)
	}
	if rep.Meta == nil || rep.Meta.Task != "php" || rep.Meta.Strategy != "baseline" {
		t.Fatalf("meta lost in round trip: %+v", rep.Meta)
	}
	if out := rep.Format(); len(out) == 0 {
		t.Fatal("empty report")
	}
}

// TestAnalyzeTraceRejectsInterleaving ensures the seq monotonicity check
// catches traces from two runs mixed into one stream.
func TestAnalyzeTraceRejectsInterleaving(t *testing.T) {
	a := traceSolve(t, 4, 1)
	b := traceSolve(t, 4, 1)
	mixed := append(append([]Event{}, a...), b...)
	if _, err := AnalyzeTrace(mixed, 10); err == nil {
		t.Fatal("interleaved trace accepted")
	}
}

// TestMetricsTracerAggregates drives two solver runs into one registry —
// the parallel-harness shape — and checks the aggregated counters.
func TestMetricsTracerAggregates(t *testing.T) {
	reg := NewRegistry()
	var want uint64
	for i := 0; i < 2; i++ {
		s := sat.New()
		mt := NewMetricsTracer(reg)
		s.Tracer = mt
		php(s, 5)
		if got := s.Solve(); got != sat.Unsat {
			t.Fatalf("php(5) = %v", got)
		}
		mt.Flush()
		want += s.Stats().Conflicts
	}
	if got := reg.Counter("solver_conflicts").Value(); got != want {
		t.Fatalf("aggregated conflicts = %d, want %d", got, want)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// with -race this is the lock-freedom proof for the hot paths.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("shared")
			g := reg.Gauge("level")
			h := reg.Histogram("obs")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("level").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("snapshot missing series: %+v", snap)
	}
	if h := snap.Histograms["obs"]; h.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
}

// TestHistogramMergeParallel merges per-worker private histograms into a
// shared one while the shared histogram also takes direct observations.
// Under -race this is the atomicity proof for Histogram.Merge: the merged
// totals must equal the single-histogram result exactly.
func TestHistogramMergeParallel(t *testing.T) {
	const workers, perWorker = 8, 5000
	shared := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := &Histogram{}
			for i := 0; i < perWorker; i++ {
				local.Observe(uint64(w*perWorker + i))
				shared.Observe(1) // concurrent direct traffic
			}
			shared.Merge(local)
		}(w)
	}
	wg.Wait()
	want := uint64(2 * workers * perWorker)
	var control Histogram
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			control.Observe(uint64(w*perWorker + i))
			control.Observe(1)
		}
	}
	got, ctl := shared.snapshot(), control.snapshot()
	if got.Count != want || got.Count != ctl.Count || got.Sum != ctl.Sum {
		t.Fatalf("merged count=%d sum=%d, control count=%d sum=%d (want count %d)",
			got.Count, got.Sum, ctl.Count, ctl.Sum, want)
	}
	for b, n := range ctl.Buckets {
		if got.Buckets[b] != n {
			t.Fatalf("bucket %d = %d, control %d", b, got.Buckets[b], n)
		}
	}
}

// TestRegistryMerge folds worker-private registries into a shared registry
// concurrently (the evaluate -serve aggregation path) and checks counters
// and histogram totals are exact.
func TestRegistryMerge(t *testing.T) {
	shared := NewRegistry()
	const workers, perWorker = 6, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := NewRegistry()
			c := local.Counter("runs")
			h := local.Histogram("latency_us")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i))
			}
			local.Gauge("depth").Set(3)
			shared.Merge(local)
		}()
	}
	wg.Wait()
	if got := shared.Counter("runs").Value(); got != workers*perWorker {
		t.Fatalf("merged counter = %d, want %d", got, workers*perWorker)
	}
	snap := shared.Snapshot()
	if h := snap.Histograms["latency_us"]; h.Count != workers*perWorker {
		t.Fatalf("merged histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	if g := snap.Gauges["depth"]; g != 3 {
		t.Fatalf("merged gauge = %d, want 3", g)
	}
}

// TestMetricsTracerLBDHistogram checks the conflict path feeds the shared
// LBD distribution.
func TestMetricsTracerLBDHistogram(t *testing.T) {
	reg := NewRegistry()
	mt := NewMetricsTracer(reg)
	mt.Conflict(sat.ConflictInfo{LBD: 3})
	mt.Conflict(sat.ConflictInfo{LBD: 5})
	mt.Conflict(sat.ConflictInfo{}) // no LBD recorded (e.g. empty learnt)
	snap := reg.Snapshot()
	h := snap.Histograms["solver_lbd"]
	if h.Count != 2 || h.Sum != 8 {
		t.Fatalf("lbd histogram count=%d sum=%d, want 2/8", h.Count, h.Sum)
	}
}

// TestSpanTreeRoundTrip writes version-2 hierarchical span events and
// checks ids, parents and offsets survive serialisation.
func TestSpanTreeRoundTrip(t *testing.T) {
	sink := &MemorySink{}
	tr := NewSolverTracer(sink, TracerOptions{Task: "t", RunID: "lit/x@sc/k1/zpre"})
	tr.SpanAt("run", 1, 0, 0, 10*time.Millisecond)
	tr.SpanAt("encode", 2, 1, time.Millisecond, 2*time.Millisecond)
	if err := tr.Close(sat.Stats{}); err != nil {
		t.Fatal(err)
	}
	if sink.Events[0].Version != TraceVersion || sink.Events[0].Run != "lit/x@sc/k1/zpre" {
		t.Fatalf("meta = %+v, want version %d with run id", sink.Events[0], TraceVersion)
	}
	rep, err := AnalyzeTrace(sink.Events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 2 {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	enc := rep.Spans[1]
	if enc.SpanID != 2 || enc.ParID != 1 || enc.StartNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("encode span = %+v", enc)
	}
}

// TestCombine covers the fan-out constructor's nil handling: a nil slot
// must not panic, a single tracer must pass through, and two tracers must
// both see every event.
func TestCombine(t *testing.T) {
	if got := Combine(nil, nil); got != nil {
		t.Fatalf("Combine(nil, nil) = %v, want nil", got)
	}
	sinkA, sinkB := &MemorySink{}, &MemorySink{}
	ta := NewSolverTracer(sinkA, TracerOptions{})
	tb := NewSolverTracer(sinkB, TracerOptions{})
	if got := Combine(ta, nil); got != sat.Tracer(ta) {
		t.Fatalf("Combine(ta, nil) = %v, want ta", got)
	}
	both := Combine(ta, tb)
	both.Restart(1)
	both.ReduceDB(10, 5)
	if err := ta.Close(sat.Stats{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(sat.Stats{}); err != nil {
		t.Fatal(err)
	}
	for name, sink := range map[string]*MemorySink{"a": sinkA, "b": sinkB} {
		rep, err := AnalyzeTrace(sink.Events, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Replayed.Restarts != 1 || rep.Replayed.Reductions != 1 {
			t.Fatalf("%s: restarts=%d reductions=%d, want 1/1",
				name, rep.Replayed.Restarts, rep.Replayed.Reductions)
		}
	}
}

// TestSpanEvents checks that span records keep their names and durations
// through analysis, including legacy flat records (no tree position).
func TestSpanEvents(t *testing.T) {
	sink := &MemorySink{}
	tr := NewSolverTracer(sink, TracerOptions{})
	tr.SpanAt("encode", 0, 0, 0, 3*time.Millisecond)
	tr.SpanAt("solve", 0, 0, 0, 5*time.Millisecond)
	if err := tr.Close(sat.Stats{}); err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeTrace(sink.Events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 2 || rep.Spans[0].Name != "encode" || rep.Spans[1].Name != "solve" {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	if rep.Spans[1].DurNS != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("solve span duration = %d", rep.Spans[1].DurNS)
	}
}

// BenchmarkHistogramObserve measures the enabled histogram hot path: one
// atomic bucket increment plus sum/count updates per observation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_us")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 1023)
	}
}

// BenchmarkRegistryHistogramLookup measures the by-name lookup callers pay
// when they do not cache the *Histogram handle.
func BenchmarkRegistryHistogramLookup(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Histogram("bench_us").Observe(1)
	}
}
