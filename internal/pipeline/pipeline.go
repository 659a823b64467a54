// Package pipeline is the verifier's one staged pipeline:
//
//	rg → unroll → encode → decide → solve → check
//
// Every way of verifying a program — zpre.Verify and its siblings, the
// evaluation harness, the zpred portfolio (through zpre.Verify) and
// cmd/zpre — runs it through Run, so a stage, a counter or a span is added
// in one place. Each stage runs inside an obs span of the same name under a
// "run" root, so a trace from any entry point has the same shape:
//
//	run
//	├── rg.prove            (Options.RG)
//	├── unroll
//	├── encode
//	│   ├── encode.static   (Options.StaticPrune)
//	│   └── encode.dataflow (Options.Dataflow)
//	├── decide
//	├── solve
//	│   └── solve.bcp, solve.theory, solve.analyze, solve.reduce, solve.inprocess
//	└── check               (Options.Check)
//
// The incremental sweep (internal/incremental) grows one encoding across
// bounds instead of unrolling afresh, but shares the decide stage (Decide),
// the solve-stage configuration (Options.SolveOptions) and the check stage
// (Check).
package pipeline

import (
	"context"
	"fmt"
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/faultinject"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/order"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/telemetry"
	"zpre/internal/witness"
)

// Options configures one run of the pipeline, grouped by the stage that
// reads each field.
type Options struct {
	// Model is the memory model (SC, TSO or PSO). Default SC.
	Model memmodel.Model
	// Strategy selects the decision order (Baseline, ZPREMinus, ZPRE, ...).
	Strategy core.Strategy
	// Unroll is the loop unrolling bound (default 1).
	Unroll int
	// Width is the program integer bit width (default 8).
	Width int

	// RG runs the rely-guarantee proof-outline engine (internal/rg) before
	// encoding. If it proves every assertion at its interference fixpoint,
	// the run ends with Result.RGProved — safe at every bound, zero
	// decisions, nothing encoded or solved. Otherwise the engine's
	// interference-stabilized variable ranges are injected into the encoder
	// as guarded per-read invariants (equisatisfiable;
	// Result.VC.RGInvariants counts them).
	RG bool
	// RGDomain selects the engine's abstract domain: rg.DomainInterval
	// (default) or rg.DomainDBM, which layers the relational zone analysis
	// (internal/relational) onto the proof outlines.
	RGDomain string
	// RGPrefilter skips proof attempts whose assertions are not
	// domain-expressible, or that round 1 already refutes under the
	// strongest (empty) rely, before the interference fixpoint spends its
	// budget (Result.RGSkippedPrefilter). Never flips a verdict.
	RGPrefilter bool
	// RGResult supplies a precomputed rely-guarantee result for this
	// (program, model, width), skipping the engine.
	RGResult *rg.Result
	// RGMemo, when non-nil, shares one engine result per (program, model,
	// width, domain, prefilter) across runs of many bounds and strategies.
	// Engine errors count as unproven there.
	RGMemo *RGMemo

	// StaticPrune drops interference candidates the static lockset/MHP
	// pre-analysis proves redundant (see encode.Options.StaticPrune).
	// Equisatisfiable; Result.VC.RFPruned/WSPruned count the drops.
	StaticPrune bool
	// Dataflow enables the value-flow pre-analysis (see
	// encode.Options.Dataflow): pre-encoding constant/copy simplification,
	// value-infeasible rf candidate pruning and fixed happens-before
	// derivation. Equisatisfiable; Result.VC.ValuePruned/FoldedAssigns/
	// FixedHB count its effects.
	Dataflow bool
	// MHB runs the must-happens-before closure engine (see
	// encode.Options.MHB): forced rf edges of unconditional single-candidate
	// reads are fixed statically, the must-fr edges they entail derived, and
	// contradicted candidates elided. Equisatisfiable;
	// Result.VC.MHBFixedRF/MHBFixedFR/MHBPruned count its effects, and the
	// decide stage ranks must-ordered interference variables last.
	MHB bool

	// Seed drives the random polarity of interference decisions.
	Seed int64
	// Polarity overrides the interference decision polarity (default
	// random, as in the paper).
	Polarity core.PolarityMode
	// DisableNumWrites drops the #write ranking from ZPRE (ablation).
	DisableNumWrites bool

	// Timeout bounds the solving wall-clock time (0 = none).
	Timeout time.Duration
	// MaxConflicts bounds the search (0 = none).
	MaxConflicts uint64
	// MaxDecisions bounds the decisions per solve (0 = none).
	MaxDecisions uint64
	// MaxMemoryBytes caps the solver's approximate allocation accounting;
	// exceeding it yields a graceful Unknown instead of an OOM (0 = none).
	MaxMemoryBytes int64
	// Context, when non-nil, cancels the solve cooperatively; the result
	// comes back Unknown with Stop == sat.StopCancelled.
	Context context.Context
	// EagerOrderPropagation turns on eager reachability propagation in the
	// ordering theory (ablation; off in the paper's setting).
	EagerOrderPropagation bool
	// TimePhases splits solve time across BCP/theory/analyze/reduce/
	// inprocess into Result.Timings. Implied by Spans and TraceSink.
	TimePhases bool
	// Tracer, when non-nil, observes the search alongside the trace sink
	// (the harness's live metrics).
	Tracer sat.Tracer
	// Faults, when non-nil, arms deterministic fault injection at the
	// solver's tracer and theory seams (see internal/faultinject); faults
	// are matched against FaultLabel. Nil costs nothing.
	Faults *faultinject.Set
	// FaultLabel is the label Faults match against (defaults to TraceTask).
	FaultLabel string

	// Check validates the verdict independently of the solver: an unsat
	// answer by replaying its recorded refutation through internal/proof,
	// a sat answer by validating the model's witness schedule
	// (internal/witness). Failures land in Result.CheckErr.
	Check bool
	// CheckLearntCap skips proof checking (Result.CheckSkipped) above this
	// many learnt clauses — the RUP checker is quadratic (0 = no cap).
	CheckLearntCap int

	// Spans, when non-nil, receives the run's span tree (see the package
	// comment) for Chrome trace-event export; see internal/obs. Its run id
	// labels the search trace's meta record.
	Spans *obs.Trace
	// TraceSink, when non-nil, receives the structured search trace
	// (decisions with variable class, conflicts with LBD, restarts, ...,
	// then the run's span tree; see internal/telemetry). The caller owns
	// the sink's lifetime.
	TraceSink telemetry.Sink
	// TraceEvery subsamples high-volume trace events: every Nth
	// decision/conflict is recorded (0 or 1 = all; counts stay exact).
	TraceEvery int
	// TraceTask labels the trace's meta record (defaults to the program
	// name).
	TraceTask string
}

// Verdict is the verification outcome at the given unrolling bound.
type Verdict int

// Verdicts.
const (
	// Unknown means the solver budget was exhausted.
	Unknown Verdict = iota
	// Safe means the VC is unsatisfiable: no assertion violation is
	// reachable within the unrolling bound.
	Safe
	// Unsafe means the VC is satisfiable: a violating execution exists.
	Unsafe
	// UnboundedSafe means the rely-guarantee engine (Options.RG) discharged
	// every assertion at its interference fixpoint: the program is safe at
	// EVERY unrolling bound, and no SMT instance was encoded or solved.
	UnboundedSafe
)

// String renders the verdict in SV-COMP vocabulary.
func (v Verdict) String() string {
	switch v {
	case Safe, UnboundedSafe:
		return "true"
	case Unsafe:
		return "false"
	}
	return "unknown"
}

// StatusVerdict maps a raw SMT status to a verdict (Sat = Unsafe, Unsat =
// Safe).
func StatusVerdict(st sat.Status) Verdict {
	switch st {
	case sat.Sat:
		return Unsafe
	case sat.Unsat:
		return Safe
	}
	return Unknown
}

// Result is what one run of the pipeline measured. It is the single
// per-run record: the harness embeds it in its RunResult, zpre renders it
// as a Report.
type Result struct {
	// Status is the raw SMT status (Sat = unsafe, Unsat = safe).
	Status sat.Status
	// Stop says why an Unknown status stopped (deadline, budgets, memout,
	// cancelled); sat.StopNone for a verdict.
	Stop sat.StopReason
	// Stats are the solver's work counters (Table 2).
	Stats sat.Stats
	// Timings is the in-solve phase split (Options.TimePhases).
	Timings sat.SearchTimings
	// OrderStats are the ordering theory's work counters.
	OrderStats order.Stats
	// VC summarises the encoded formula: events, rf/ws variables, clauses
	// and every pre-analysis's pruning counters.
	VC encode.Stats
	// Unroll, Encode and Solve are the stage times; Solve is the backend
	// time the paper measures.
	Unroll time.Duration
	Encode time.Duration
	Solve  time.Duration
	// RGProved: the rely-guarantee engine proved the program at every
	// bound and the SMT backend never ran (Status is Unsat).
	RGProved bool
	// RGStabilizeIters is the engine's outer fixpoint round count.
	RGStabilizeIters int
	// RGSkippedPrefilter: the engine's pre-filter skipped the proof attempt
	// and the SMT backend decided the program alone.
	RGSkippedPrefilter bool
	// Checked: the verdict passed independent validation (Options.Check).
	// CheckSkipped: it could not be checked — the proof exceeded
	// CheckLearntCap, or the rg stage decided the run and no proof exists.
	Checked      bool
	CheckSkipped bool
	// CheckErr is a validation failure (a solver bug if it ever happens).
	CheckErr error
}

// Verdict is the run's verdict.
func (r Result) Verdict() Verdict {
	if r.RGProved {
		return UnboundedSafe
	}
	return StatusVerdict(r.Status)
}

// Run drives one program through every stage. It returns the encoded
// instance too, for callers that read the model afterwards (witnesses);
// the instance is nil when the rg stage decided the run. On error the
// result holds what the stages before the failure measured.
//
// The instance belongs to the caller. Its solving storage — the Builder
// with its solver, ordering theory, name table and model, and the decide
// stage's classification and decider — stays valid until the caller calls
// vc.Release, which recycles it for the next instance. Once Release has
// run, the Builder, Builder.Names, model values (Value, BVValue) and
// VarName are invalid, so the check stage and witness extraction must run
// before it; Run's own check stage does. The recorded proof Trace
// (vc.Proof), Events and Stats stay the caller's. A caller that only needs
// the Result releases the instance at once (zpre.Verify, harness.RunOne);
// one that reads the model later keeps it and never releases it, and the
// instance is then garbage-collected like any other value.
func Run(p *cprog.Program, opts Options) (Result, *encode.VC, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	if opts.TraceTask == "" {
		opts.TraceTask = p.Name
	}
	tr := opts.Spans
	if tr == nil && opts.TraceSink != nil {
		// The search trace carries the span tree, so it needs one even when
		// the caller collects no Chrome trace.
		tr = obs.NewTrace("")
	}
	root := tr.Start("run")
	defer tr.End(root)

	var res Result
	var ranges map[string]dataflow.Interval
	if opts.RG {
		span := tr.Start("rg.prove")
		rgRes, err := Prove(p, opts)
		tr.End(span)
		if err != nil {
			return res, nil, err
		}
		res.RGStabilizeIters = rgRes.StabilizeIters
		res.RGSkippedPrefilter = rgRes.SkippedPrefilter
		if rgRes.Proved {
			res.Status = sat.Unsat
			res.RGProved = true
			// No SMT instance, hence no proof trace for the checker.
			res.CheckSkipped = opts.Check
			return res, nil, nil
		}
		ranges = rgRes.Ranges
	}

	span := tr.Start("unroll")
	start := time.Now()
	unrolled := cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume)
	res.Unroll = time.Since(start)
	tr.End(span)

	span = tr.Start("encode")
	start = time.Now()
	vc, err := encode.Program(unrolled, opts.EncodeOptions(ranges))
	res.Encode = time.Since(start)
	tr.End(span)
	if err != nil {
		return res, nil, err
	}
	res.VC = vc.Stats
	// The encoder's pre-analysis shares are measured sub-phases: lay them
	// out as children of the encode span.
	if opts.StaticPrune {
		tr.AddChild(span, "encode.static", vc.Stats.StaticTime)
	}
	if opts.Dataflow {
		tr.AddChild(span, "encode.dataflow", vc.Stats.DataflowTime)
	}

	span = tr.Start("decide")
	infos, decider := Decide(vc, opts)
	tr.End(span)
	// ZPREStatic without an eager consumer runs the static analysis inside
	// Decide; report its time like the encoder's.
	res.VC.StaticTime = vc.Stats.StaticTime

	var tracer *telemetry.SolverTracer
	searchTracer := opts.Tracer
	if opts.TraceSink != nil {
		tracer = telemetry.NewSolverTracer(opts.TraceSink, telemetry.TracerOptions{
			Classes:  core.ClassNames(infos),
			Task:     opts.TraceTask,
			Strategy: opts.Strategy.String(),
			Model:    opts.Model.String(),
			Every:    opts.TraceEvery,
			RunID:    tr.Run,
		})
		searchTracer = telemetry.Combine(tracer, opts.Tracer)
	}
	sopts := opts.SolveOptions(decider, searchTracer)
	sopts.TimePhases = sopts.TimePhases || tr != nil

	span = tr.Start("solve")
	sr, err := vc.Builder.Solve(sopts)
	tr.End(span)
	if err != nil {
		return res, vc, err
	}
	res.Status = sr.Status
	res.Stop = sr.Stop
	res.Solve = sr.Elapsed
	res.Stats = sr.Stats
	res.Timings = sr.Timings
	res.OrderStats = sr.OrderStats
	// The in-solve phase split comes from the solver's own timers, so the
	// solve span's children sum exactly to sat.SearchTimings.
	AddSolvePhases(tr, span, sr.Timings)

	if opts.Check {
		span = tr.Start("check")
		res.Checked, res.CheckSkipped, res.CheckErr = Check(vc, sr.Status, opts.CheckLearntCap)
		tr.End(span)
	}

	if tracer != nil {
		// Close the root now so the search trace carries the complete span
		// tree (the deferred End is then a no-op).
		tr.End(root)
		for _, sp := range tr.Spans() {
			tracer.SpanAt(sp.Name, sp.ID, sp.Parent, sp.Start, sp.Dur)
		}
		if err := tracer.Close(sr.StatsDelta); err != nil {
			return res, vc, fmt.Errorf("trace sink: %w", err)
		}
	}
	return res, vc, nil
}

// Prove is the rg stage on its own: the caller's precomputed or memoised
// rely-guarantee result, or a fresh engine run.
func Prove(p *cprog.Program, opts Options) (*rg.Result, error) {
	switch {
	case opts.RGResult != nil:
		return opts.RGResult, nil
	case opts.RGMemo != nil:
		return opts.RGMemo.get(p, opts), nil
	}
	return rg.Prove(p, opts.rgOptions())
}

func (o Options) rgOptions() rg.Options {
	return rg.Options{Model: o.Model, Width: o.Width, Domain: o.RGDomain, Prefilter: o.RGPrefilter}
}

// Encode is the unroll and encode stages on their own, without the rg
// stage's invariant ranges: the instance a run would solve, for dumping.
func Encode(p *cprog.Program, opts Options) (*encode.VC, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	return encode.Program(cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume), opts.EncodeOptions(nil))
}

// EncodeOptions is the encode stage's configuration, given the rg stage's
// invariant ranges (nil for none).
func (o Options) EncodeOptions(ranges map[string]dataflow.Interval) encode.Options {
	return encode.Options{
		Model:       o.Model,
		Width:       o.Width,
		WithProof:   o.Check,
		StaticPrune: o.StaticPrune,
		Dataflow:    o.Dataflow,
		MHB:         o.MHB,
		RGRanges:    ranges,
	}
}

// Decide is the decide stage: it classifies the instance's named variables
// and builds the strategy's decision order (nil for Baseline, which keeps
// the solver's own VSIDS order). Only ZPREStatic reads a score: the static
// analysis's conflict scores (computed here on first use, when the VC's
// analysis aligns) and, when the MHB closure ran, a rank below every other
// pair for interference variables whose two accesses it proved
// must-ordered — unit propagation from the level-0 fixed edges forces
// them, so deciding them early is pure search noise. The other strategies
// ignore both feeds.
//
// The VarInfo table and the decider live in the instance's decide
// workspace (encode.VC.DecideWorkspace): they are valid until the next
// Decide on the same instance or its Release.
func Decide(vc *encode.VC, opts Options) ([]core.VarInfo, sat.Decider) {
	ws := vc.DecideWorkspace()
	infos := ws.ClassifyNames(vc.Builder.Names())
	cfg := core.Config{
		Seed:             opts.Seed,
		Polarity:         opts.Polarity,
		DisableNumWrites: opts.DisableNumWrites,
	}
	if opts.Strategy == core.ZPREStatic {
		if st, ordered := vc.StaticAnalysis(), vc.MHBOrdered; st != nil || ordered != nil {
			cfg.Score = func(vi core.VarInfo) int {
				if ordered != nil && ordered(vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx) {
					return -1
				}
				if st == nil {
					return 0
				}
				return st.PairScore(vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx)
			}
		}
	}
	if dec := ws.NewDecider(opts.Strategy, infos, cfg); dec != nil {
		return infos, dec
	}
	return infos, nil // an untyped nil, so the solver sees no decider
}

// SolveOptions is the solve stage's configuration for one solve call:
// budgets, a deadline starting now, cancellation, the decider and search
// observer, and the fault-injection seams when Faults is armed.
func (o Options) SolveOptions(decider sat.Decider, tracer sat.Tracer) smt.Options {
	so := smt.Options{
		Decider:               decider,
		MaxConflicts:          o.MaxConflicts,
		MaxDecisions:          o.MaxDecisions,
		MaxMemoryBytes:        o.MaxMemoryBytes,
		Context:               o.Context,
		EagerOrderPropagation: o.EagerOrderPropagation,
		Tracer:                tracer,
		TimePhases:            o.TimePhases,
	}
	if o.Timeout > 0 {
		so.Deadline = time.Now().Add(o.Timeout)
	}
	if faults := o.Faults; faults != nil {
		label := o.FaultLabel
		if label == "" {
			label = o.TraceTask
		}
		so.Tracer = faults.Tracer(label, so.Tracer)
		// The closure captures faults, not o: capturing the whole options
		// struct would move it to the heap on every call.
		so.WrapTheory = func(th sat.Theory) sat.Theory {
			return faults.Theory(label, th)
		}
	}
	return so
}

// AddSolvePhases lays the solver's in-solve phase split out as measured
// children of a solve span.
func AddSolvePhases(tr *obs.Trace, solveSpan int, t sat.SearchTimings) {
	tr.AddChild(solveSpan, "solve.bcp", t.BCP)
	tr.AddChild(solveSpan, "solve.theory", t.Theory)
	tr.AddChild(solveSpan, "solve.analyze", t.Analyze)
	tr.AddChild(solveSpan, "solve.reduce", t.Reduce)
	tr.AddChild(solveSpan, "solve.inprocess", t.Inprocess)
}

// Check is the check stage: it validates a verdict independently of the
// solver. Unsat answers replay the refutation recorded by an instance
// encoded with WithProof (skipped above learntCap learnt clauses when
// learntCap > 0); sat answers linearise the model into a witness schedule
// and validate its memory semantics. Unknown answers stay unchecked.
func Check(vc *encode.VC, status sat.Status, learntCap int) (checked, skipped bool, err error) {
	switch status {
	case sat.Unsat:
		if _, learnts, _, _ := vc.Proof.Stats(); learntCap > 0 && learnts > learntCap {
			return false, true, nil
		}
		if err := vc.Builder.CheckProof(vc.Proof); err != nil {
			return false, false, fmt.Errorf("unsat verdict failed proof checking: %w", err)
		}
		return true, false, nil
	case sat.Sat:
		steps, err := witness.Extract(vc)
		if err != nil {
			return false, false, fmt.Errorf("sat verdict yielded no witness: %w", err)
		}
		if err := witness.Validate(steps); err != nil {
			return false, false, fmt.Errorf("sat verdict failed witness validation: %w", err)
		}
		return true, false, nil
	}
	return false, false, nil
}
