package telemetry

import (
	"time"

	"zpre/internal/sat"
)

// TracerOptions configures a SolverTracer.
type TracerOptions struct {
	// Classes maps SAT variables to their class string (rf-external,
	// rf-internal, ws, ord, ssa, guard); unknown variables trace as "anon".
	Classes map[sat.Var]string
	// Strategy, Task and Model identify the run in the opening meta event.
	Strategy string
	Task     string
	Model    string
	// RunID is the stable run identifier
	// (subcategory/benchmark@model/k<bound>/strategy) recorded in the meta
	// event, joining the trace to metric labels, slog lines and /runs.
	RunID string
	// Every samples high-volume events: only every Nth decision, conflict
	// and theory-conflict event is written (0 and 1 both mean "all").
	// Counts stay exact regardless — the summary record always carries
	// full totals.
	Every int
}

// SolverTracer implements sat.Tracer on top of a Sink: it converts the
// solver callbacks into Event records, run-length coalesces propagations,
// applies sampling, and keeps exact per-kind counts for the closing
// summary. It is single-goroutine, like the solver that drives it.
type SolverTracer struct {
	sink  Sink
	opts  TracerOptions
	every uint64
	start time.Time

	seq          uint64
	counts       Counts
	pendingProps uint64
	pendingTheo  uint64
	err          error
}

// NewSolverTracer builds a tracer over sink and writes the opening meta
// event. The tracer owns neither the sink's lifetime nor the solver's: call
// Close when the traced solve finishes, then close the sink.
func NewSolverTracer(sink Sink, opts TracerOptions) *SolverTracer {
	every := uint64(opts.Every)
	if every == 0 {
		every = 1
	}
	t := &SolverTracer{
		sink:  sink,
		opts:  opts,
		every: every,
		start: time.Now(),
	}
	t.counts.ByClass = map[string]uint64{}
	t.counts.BySource = map[string]uint64{}
	t.emit(&Event{
		Kind:     KindMeta,
		Task:     opts.Task,
		Strategy: opts.Strategy,
		Model:    opts.Model,
		Every:    int(every),
		Version:  TraceVersion,
		Run:      opts.RunID,
	})
	return t
}

// Err returns the first sink error, if any.
func (t *SolverTracer) Err() error { return t.err }

func (t *SolverTracer) emit(ev *Event) {
	t.seq++
	ev.Seq = t.seq
	if t.err == nil {
		t.err = t.sink.Emit(ev)
	}
}

// flushBatches writes any pending propagation run-lengths. Called before
// every non-propagation event so that event order within the stream is
// faithful to the search.
func (t *SolverTracer) flushBatches() {
	if t.pendingProps > 0 {
		t.emit(&Event{Kind: KindProp, N: t.pendingProps})
		t.pendingProps = 0
	}
	if t.pendingTheo > 0 {
		t.emit(&Event{Kind: KindTheoryProp, N: t.pendingTheo})
		t.pendingTheo = 0
	}
}

func (t *SolverTracer) class(v sat.Var) string {
	if c, ok := t.opts.Classes[v]; ok {
		return c
	}
	return "anon"
}

// Decision implements sat.Tracer.
func (t *SolverTracer) Decision(l sat.Lit, level int, src sat.DecisionSource) {
	t.counts.Decisions++
	cls := t.class(l.Var())
	t.counts.ByClass[cls]++
	t.counts.BySource[src.String()]++
	if t.counts.Decisions%t.every != 0 {
		return
	}
	t.flushBatches()
	t.emit(&Event{
		Kind:   KindDecision,
		TNS:    time.Since(t.start).Nanoseconds(),
		Idx:    t.counts.Decisions,
		Var:    int32(l.Var()),
		Neg:    l.IsNeg(),
		Class:  cls,
		Level:  level,
		Source: src.String(),
	})
}

// Propagation implements sat.Tracer (run-length coalesced).
func (t *SolverTracer) Propagation(sat.Lit) {
	t.counts.Propagations++
	t.pendingProps++
}

// TheoryPropagation implements sat.Tracer (run-length coalesced).
func (t *SolverTracer) TheoryPropagation(sat.Lit) {
	t.counts.TheoryProps++
	t.pendingTheo++
}

// Conflict implements sat.Tracer.
func (t *SolverTracer) Conflict(info sat.ConflictInfo) {
	t.counts.Conflicts++
	if t.counts.Conflicts%t.every != 0 {
		return
	}
	t.flushBatches()
	t.emit(&Event{
		Kind:     KindConflict,
		TNS:      time.Since(t.start).Nanoseconds(),
		Idx:      t.counts.Conflicts,
		Size:     info.LearntSize,
		LBD:      info.LBD,
		Level:    info.Level,
		Backjump: info.Backjump,
		Theory:   info.Theory,
	})
}

// TheoryConflict implements sat.Tracer.
func (t *SolverTracer) TheoryConflict(size int) {
	t.counts.TheoryConfl++
	if t.counts.TheoryConfl%t.every != 0 {
		return
	}
	t.flushBatches()
	t.emit(&Event{Kind: KindTheoryConflict, Size: size})
}

// Restart implements sat.Tracer.
func (t *SolverTracer) Restart(n uint64) {
	t.counts.Restarts++
	t.flushBatches()
	t.emit(&Event{Kind: KindRestart, N: n})
}

// ReduceDB implements sat.Tracer.
func (t *SolverTracer) ReduceDB(kept, deleted int) {
	t.counts.Reductions++
	t.flushBatches()
	t.emit(&Event{Kind: KindReduce, Kept: kept, Deleted: deleted})
}

// Inprocess implements sat.Tracer.
func (t *SolverTracer) Inprocess(subsumed, strengthened int) {
	t.counts.Inprocessings++
	t.counts.Subsumed += uint64(subsumed)
	t.counts.Strengthened += uint64(strengthened)
	t.flushBatches()
	t.emit(&Event{Kind: KindInprocess, Subsumed: subsumed, Strengthened: strengthened})
}

// SpanAt records one node of a hierarchical span tree: id is the span's
// per-trace ordinal (≥1), parent the enclosing span's id (0 = root), start
// the offset from the run origin. Version-2 consumers rebuild the tree from
// these; legacy readers see them as ordinary named spans.
func (t *SolverTracer) SpanAt(name string, id, parent int, start, d time.Duration) {
	t.flushBatches()
	t.emit(&Event{
		Kind:    KindSpan,
		TNS:     time.Since(t.start).Nanoseconds(),
		Name:    name,
		DurNS:   d.Nanoseconds(),
		SpanID:  id,
		ParID:   parent,
		StartNS: start.Nanoseconds(),
	})
}

// Close flushes pending batches and writes the summary record: the exact
// event counts and the solver's Stats delta for the traced solve. It does
// not close the sink. Close returns the first error seen on the sink.
func (t *SolverTracer) Close(stats sat.Stats) error {
	t.flushBatches()
	counts := t.counts
	t.emit(&Event{Kind: KindSummary, Counts: &counts, Stats: &stats})
	return t.err
}
