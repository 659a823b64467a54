// Package harness runs the paper's evaluation (§5): every corpus program is
// encoded per memory model and unrolling bound, and each resulting SMT
// instance (a "verification task") is solved with each decision strategy.
// Aggregators reproduce Table 1 (both-solved time and speedup), Table 2
// (decisions/propagations/conflicts), Table 3 (Z3 vs ZPRE⁻ vs ZPRE summary)
// and the data series behind Figures 6–11 (per-task scatter and
// per-subcategory times).
package harness

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"zpre/internal/core"
	"zpre/internal/encode"
	"zpre/internal/faultinject"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/pipeline"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
	"zpre/internal/telemetry"
)

// Task is one SMT instance: a program at a memory model and unroll bound.
type Task struct {
	Bench svcomp.Benchmark
	Model memmodel.Model
	Bound int
}

// ID renders a unique task identifier.
func (t Task) ID() string {
	return fmt.Sprintf("%s/%s@%s/k%d", t.Bench.Subcategory, t.Bench.Name, t.Model, t.Bound)
}

// RunID renders the stable run identifier of one (task, strategy) run —
// "sub/bench@model/k<bound>/strategy". It is the join key attached to span
// traces, trace meta records, slog lines and the /runs surface.
func RunID(t Task, s core.Strategy) string {
	return t.ID() + "/" + s.String()
}

// RunResult is the outcome of solving one task with one strategy: the
// pipeline's per-run record plus the sweep's bookkeeping.
type RunResult struct {
	Task     Task
	Strategy core.Strategy
	pipeline.Result
	Err error
	// Completed marks a terminal outcome: a verdict, a timeout/memout, a
	// contained panic or any other error. Only cancelled runs (SIGINT or a
	// cancelled context) are incomplete — they are what `-resume` re-runs.
	Completed bool
	// Resumed marks a run restored from a checkpoint rather than executed.
	Resumed bool
	// Incremental marks a run solved as one bound of an unroll sweep on a
	// live solver (Config.Incremental) rather than as a fresh instance.
	// Stats then hold only this bound's counter increments.
	Incremental bool
	// CumulativeSolve is the sweep's accumulated solve time through this
	// bound; Cumulative the solver counters since the sweep began.
	CumulativeSolve time.Duration
	Cumulative      sat.Stats
}

// Solved reports whether the run finished within budget.
func (r RunResult) Solved() bool { return r.Err == nil && r.Status != sat.Unknown }

// Failure classifies an unsolved run: the error's class when one is set
// (panic, error, ...), otherwise the solver's stop reason (timeout, memout,
// cancelled; an Unknown with no recorded reason counts as timeout).
// FailNone for solved runs.
func (r RunResult) Failure() sat.FailureKind {
	if r.Err != nil {
		return sat.Classify(r.Err)
	}
	if r.Status == sat.Unknown {
		if k := r.Stop.Failure(); k != sat.FailNone {
			return k
		}
		return sat.FailTimeout
	}
	return sat.FailNone
}

// Config controls an evaluation run.
type Config struct {
	// Models to evaluate (default: SC, TSO, PSO — the paper's three).
	Models []memmodel.Model
	// Strategies to evaluate (default: Baseline, ZPREMinus, ZPRE).
	Strategies []core.Strategy
	// Bounds are the unroll bounds (the paper uses 1..6; loop-free programs
	// are deduplicated to bound 1, as in §5 "after eliminating duplications").
	Bounds []int
	// Timeout per task (the paper uses 1800 s; default 10 s here).
	Timeout time.Duration
	// MaxConflicts optionally caps the search instead of/in addition to the
	// wall clock (deterministic budgets for tests).
	MaxConflicts uint64
	// MaxDecisions optionally caps decisions per solve (deterministic
	// budget; Unknown(decision-budget) classifies as timeout).
	MaxDecisions uint64
	// MaxMemoryBytes caps the solver's approximate allocation accounting
	// (clause DB + trail); exceeding it yields a graceful Unknown(memout)
	// instead of an OOM kill.
	MaxMemoryBytes int64
	// Context, when non-nil, cancels the sweep cooperatively: in-flight
	// solves stop at the next budget poll, queued runs are marked cancelled,
	// and Run returns the partial results (plus a final checkpoint when
	// CheckpointPath is set).
	Context context.Context
	// Width is the program integer bit width (default 8).
	Width int
	// Seed drives random polarities.
	Seed int64
	// Subcategories restricts the corpus (empty = all).
	Subcategories []string
	// CheckVerdicts validates every verdict independently: unsat answers by
	// proof checking (internal/proof; skipped above checkLearntCap learnt
	// clauses — the naive RUP checker is quadratic), sat answers by witness
	// schedule validation (internal/witness). Failures land in
	// RunResult.CheckErr.
	CheckVerdicts bool
	// StaticPrune drops rf/ws interference candidates the static lockset/MHP
	// analysis proves infeasible before they reach the solver. The encoding
	// stays equisatisfiable; RunResult.VC records how many were dropped.
	StaticPrune bool
	// Dataflow enables the value-flow pre-analysis: pre-encoding
	// simplification, value-infeasible rf pruning and fixed happens-before
	// derivation (see encode.Options.Dataflow). Equisatisfiable;
	// RunResult.VC.ValuePruned/FoldedAssigns/FixedHB count its effects.
	Dataflow bool
	// Parallel is the number of worker goroutines solving tasks. Default 1:
	// sequential runs give the cleanest per-task wall-clock timings (the
	// quantity the paper reports). Set to runtime.NumCPU() (or use
	// RunParallel) for throughput when only verdicts and counters matter —
	// the corpus sweep is embarrassingly parallel across tasks.
	Parallel int
	// Progress, when non-nil, receives one line per completed task.
	Progress io.Writer
	// TraceDir, when set, writes one structured JSONL search trace per run
	// into this directory (created if missing). Every run gets a private
	// sink, so parallel workers never interleave events; file names come
	// from TraceFileName.
	TraceDir string
	// TraceEvery subsamples high-volume trace events (every Nth
	// decision/conflict; 0 or 1 = all). Counts stay exact in the summary.
	TraceEvery int
	// TimePhases splits each run's solve time across BCP / theory /
	// analyze / reduce (RunResult.Timings, exported in the JSON). Implied
	// by TraceDir.
	TimePhases bool
	// Metrics, when non-nil, receives live aggregate counters across all
	// workers (runs_done, solves_running, solver_conflicts, ...) for
	// progress displays; see internal/telemetry.Registry.
	Metrics *telemetry.Registry
	// CheckpointPath, when set, periodically atomic-writes (tmp+rename) the
	// results recorded so far as a JSON export, and writes a final
	// checkpoint when the sweep ends or is cancelled.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in completed runs
	// (default 16).
	CheckpointEvery int
	// Resume, when non-nil, is a prior (possibly partial) JSON export —
	// see LoadCheckpoint. Completed (task, strategy) pairs found in it are
	// restored instead of re-run; cancelled and missing pairs execute.
	Resume *JSONResults
	// Faults injects deterministic failures (panics, stalls, corrupted
	// theory verdicts) into matching runs; see internal/faultinject. Used
	// by the resilience tests and `evaluate -inject`.
	Faults *faultinject.Set
	// RG runs the rely-guarantee proof-outline engine (internal/rg) once
	// per (benchmark, model) pair before solving. Tasks of a proved pair
	// report unsat with RunResult.RGProved and never touch the SMT backend
	// (at any bound — the proof is unbounded). Unproven pairs have the
	// engine's interference-stabilized variable ranges injected as guarded
	// per-read invariant constraints (RunResult.VC.RGInvariants); the
	// instance stays equisatisfiable. Composes with Incremental: a proved
	// group skips its whole sweep, an unproven group asserts each
	// invariant once when its read is created.
	RG bool
	// RGDomain selects the rely-guarantee abstract domain: rg.DomainInterval
	// (the default when empty) or rg.DomainDBM for the relational
	// difference-bound zones.
	RGDomain string
	// RGPrefilter runs the engine's cheap pre-filter before each proof
	// attempt; skipped pairs never enter the fixpoint and are flagged on
	// RunResult.RGSkippedPrefilter. Skips never lose proofs on domain-
	// expressible assertions (enforced by the corpus precision test).
	RGPrefilter bool
	// MHB runs the encoder's must-happens-before closure engine
	// (encode.Options.MHB): forced rf edges are fixed at decision level 0,
	// their must-fr consequences derived, and contradicted interference
	// candidates elided. Fresh mode only — the incremental delta encoder
	// forces it off (edge fixing is not bound-monotone).
	MHB bool
	// Incremental solves each (benchmark, model, strategy) group's bounds
	// as one unroll sweep on a single live solver (internal/incremental):
	// the encoding grows by deltas under per-bound activation literals and
	// learned clauses carry over between bounds. Verdicts are identical to
	// fresh mode; per-run Stats hold the bound's counter increments, with
	// sweep totals in RunResult.Cumulative. Unsat verdicts cannot be
	// proof-checked incrementally (CheckVerdicts marks them CheckSkipped);
	// TraceDir is not supported in this mode.
	Incremental bool
	// Chrome, when non-nil, collects one hierarchical span trace per run
	// (rg prove, unroll, encode with static/dataflow children, solve with
	// the BCP/theory/analyze/reduce split). Export the collection with
	// obs.WriteChrome for a Perfetto-loadable flame view of the whole
	// evaluation.
	Chrome *obs.Collector
	// Board, when non-nil, receives live run-state transitions
	// (queued → running at a bound → done with verdict and stop reason)
	// for the /runs HTTP surface.
	Board *obs.RunBoard
	// Logger, when non-nil, receives structured slog records for run
	// lifecycle events, each carrying the stable run id.
	Logger *slog.Logger

	// rgMemo shares one rely-guarantee result per (benchmark, model) across
	// the pair's (bound, strategy) runs. Set by fill(); shared across
	// workers via the pointer.
	rgMemo *pipeline.RGMemo
}

// checkLearntCap bounds proof checking under CheckVerdicts.
const checkLearntCap = 4000

// options maps the sweep configuration onto one run's pipeline options.
func (c *Config) options(t Task, s core.Strategy) pipeline.Options {
	return pipeline.Options{
		Model:          t.Model,
		Strategy:       s,
		Unroll:         t.Bound,
		Width:          c.Width,
		RG:             c.RG,
		RGDomain:       c.RGDomain,
		RGPrefilter:    c.RGPrefilter,
		RGMemo:         c.rgMemo,
		StaticPrune:    c.StaticPrune,
		Dataflow:       c.Dataflow,
		MHB:            c.MHB,
		Seed:           c.Seed,
		Timeout:        c.Timeout,
		MaxConflicts:   c.MaxConflicts,
		MaxDecisions:   c.MaxDecisions,
		MaxMemoryBytes: c.MaxMemoryBytes,
		Context:        c.Context,
		TimePhases:     c.TimePhases,
		Faults:         c.Faults,
		FaultLabel:     RunID(t, s),
		Check:          c.CheckVerdicts,
		CheckLearntCap: checkLearntCap,
		TraceEvery:     c.TraceEvery,
		TraceTask:      t.ID(),
	}
}

// rgResult is the sweep's memoised rely-guarantee result for a task's
// (benchmark, model) pair; the strategy never reaches the rg stage.
func (c *Config) rgResult(t Task) *rg.Result {
	res, _ := pipeline.Prove(t.Bench.Program, c.options(t, core.Baseline)) // memoised: never fails
	return res
}

// TraceFileName is the per-run trace file name under Config.TraceDir.
func TraceFileName(t Task, s core.Strategy) string {
	id := fmt.Sprintf("%s_%s_%s_k%d_%s", t.Bench.Subcategory, t.Bench.Name, t.Model, t.Bound, s)
	id = strings.Map(func(r rune) rune {
		switch r {
		case '/', '@', ' ':
			return '_'
		}
		return r
	}, id)
	return id + ".trace.jsonl"
}

func (c *Config) fill() {
	if len(c.Models) == 0 {
		c.Models = memmodel.All()
	}
	if len(c.Strategies) == 0 {
		c.Strategies = []core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE}
	}
	if len(c.Bounds) == 0 {
		c.Bounds = []int{1, 2, 3}
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * time.Second
	}
	if c.Width == 0 {
		c.Width = 8
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	if c.RG && c.rgMemo == nil {
		var hist *telemetry.Histogram
		if c.Metrics != nil {
			hist = c.Metrics.Histogram("rg_prove_us")
		}
		c.rgMemo = pipeline.NewRGMemo(hist)
	}
}

// Tasks expands the corpus into the task list: programs × models × bounds,
// with loop-free programs contributing a single bound (the paper's
// deduplication of identical SMT files).
func Tasks(cfg Config) []Task {
	cfg.fill()
	var benches []svcomp.Benchmark
	if len(cfg.Subcategories) == 0 {
		benches = svcomp.All()
	} else {
		for _, sub := range cfg.Subcategories {
			benches = append(benches, svcomp.BySubcategory(sub)...)
		}
	}
	var tasks []Task
	for _, b := range benches {
		bounds := cfg.Bounds
		if !b.Program.HasLoops() {
			bounds = cfg.Bounds[:1]
		}
		for _, mm := range cfg.Models {
			for _, k := range bounds {
				tasks = append(tasks, Task{Bench: b, Model: mm, Bound: k})
			}
		}
	}
	return tasks
}

// Results holds every run of an evaluation.
type Results struct {
	Config Config
	Runs   []RunResult
}

// recorder serialises result writes from the workers: it fills res.Runs,
// maintains the failure-class metrics and drives the checkpoint cadence.
// A single mutex covers result slots, progress output and checkpoint writes,
// so a checkpoint never observes a half-written slot.
type recorder struct {
	mu        sync.Mutex
	res       *Results
	cfg       *Config
	done      []bool
	recorded  int
	sinceCkpt int
}

func newRecorder(res *Results, cfg *Config) *recorder {
	return &recorder{res: res, cfg: cfg, done: make([]bool, len(res.Runs))}
}

// record stores one finished (or restored, or cancelled) run.
func (rc *recorder) record(idx int, r RunResult) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.res.Runs[idx] = r
	rc.done[idx] = true
	rc.recorded++
	id := RunID(r.Task, r.Strategy)
	rc.cfg.Board.Done(id, r.Status.String(), r.Stop.String())
	if lg := obs.ForRun(rc.cfg.Logger, id); lg != nil {
		attrs := []any{
			"status", r.Status.String(),
			"solve_sec", r.Solve.Seconds(),
			"decisions", r.Stats.Decisions,
			"conflicts", r.Stats.Conflicts,
		}
		if r.Resumed {
			attrs = append(attrs, "resumed", true)
		}
		if r.RGProved {
			attrs = append(attrs, "rg_proved", true)
		}
		if f := r.Failure(); f != sat.FailNone {
			attrs = append(attrs, "failure", f.String())
		}
		if r.Err != nil {
			attrs = append(attrs, "error", r.Err.Error())
		}
		lg.Info("run done", attrs...)
	}
	if m := rc.cfg.Metrics; m != nil && !r.Resumed && !r.RGProved && r.Err == nil {
		// Per-phase latency and per-run search-work distributions. Labels
		// use bounded dimensions only (phase names), never run ids — the
		// run id joins signals through the board, logs and traces instead.
		phaseHist(m, "unroll").ObserveDuration(r.Unroll)
		phaseHist(m, "encode").ObserveDuration(r.Encode)
		phaseHist(m, "solve").ObserveDuration(r.Solve)
		m.Histogram("run_decisions").Observe(r.Stats.Decisions)
		m.Histogram("run_conflicts").Observe(r.Stats.Conflicts)
	}
	if m := rc.cfg.Metrics; m != nil {
		if r.Completed {
			m.Counter("runs_done").Inc()
		}
		if r.Resumed {
			m.Counter("runs_resumed").Inc()
		}
		switch r.Failure() {
		case sat.FailPanic:
			m.Counter("tasks_panicked").Inc()
		case sat.FailCancelled:
			m.Counter("tasks_cancelled").Inc()
		case sat.FailMemout:
			m.Counter("tasks_memout").Inc()
		case sat.FailError:
			m.Counter("tasks_errored").Inc()
		}
		if r.RGProved {
			m.Counter("rg_proved").Inc()
		}
		if r.RGSkippedPrefilter {
			m.Counter("rg_skipped_prefilter").Inc()
		}
		if !r.Incremental {
			// Incremental bounds carry cumulative stats; their sweeps are
			// counted once, at the end of runSweepGroup.
			addDataflowCounters(m, r.VC)
		}
	}
	if rc.cfg.Progress != nil {
		note := ""
		switch {
		case r.Resumed:
			note = " (resumed)"
		case r.Failure() == sat.FailCancelled:
			note = " (cancelled)"
		case r.Failure() != sat.FailNone:
			note = " (" + r.Failure().String() + ")"
		}
		fmt.Fprintf(rc.cfg.Progress, "[%d/%d] %s %s%s\n",
			rc.recorded, len(rc.res.Runs), r.Task.ID(), r.Strategy, note)
	}
	if rc.cfg.CheckpointPath != "" && !r.Resumed {
		rc.sinceCkpt++
		if rc.sinceCkpt >= rc.cfg.CheckpointEvery {
			rc.checkpointLocked()
		}
	}
}

// phaseHist returns the registry's per-phase latency histogram
// (phase_latency_us labeled by phase).
func phaseHist(m *telemetry.Registry, phase string) *telemetry.Histogram {
	return m.Histogram(obs.Labels("phase_latency_us", map[string]string{"phase": phase}))
}

// addDataflowCounters folds one run's value-flow encoder stats into the
// registry. Fresh runs add theirs in record(); incremental sweeps add only
// the final bound's cumulative stats (runSweepGroup), so nothing is counted
// twice.
func addDataflowCounters(m *telemetry.Registry, vc encode.Stats) {
	if vc.ValuePruned > 0 {
		m.Counter("dataflow_value_pruned").Add(uint64(vc.ValuePruned))
	}
	if vc.FoldedAssigns > 0 {
		m.Counter("dataflow_folded_assigns").Add(uint64(vc.FoldedAssigns))
	}
	if vc.FixedHB > 0 {
		m.Counter("dataflow_fixed_hb").Add(uint64(vc.FixedHB))
	}
	if vc.RelPruned > 0 {
		m.Counter("dataflow_rel_pruned").Add(uint64(vc.RelPruned))
	}
	if vc.MHBFixedRF > 0 {
		m.Counter("mhb_fixed_rf").Add(uint64(vc.MHBFixedRF))
	}
	if vc.MHBFixedFR > 0 {
		m.Counter("mhb_fixed_fr").Add(uint64(vc.MHBFixedFR))
	}
	if vc.MHBPruned > 0 {
		m.Counter("mhb_pruned").Add(uint64(vc.MHBPruned))
	}
	if vc.RGInvariants > 0 {
		m.Counter("rg_invariants").Add(uint64(vc.RGInvariants))
	}
}

// flush forces a final checkpoint covering everything recorded so far.
func (rc *recorder) flush() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.cfg.CheckpointPath != "" && rc.sinceCkpt > 0 {
		rc.checkpointLocked()
	}
}

func (rc *recorder) checkpointLocked() {
	rc.sinceCkpt = 0
	if err := SaveCheckpoint(rc.cfg.CheckpointPath, rc.res, rc.done); err != nil {
		if rc.cfg.Progress != nil {
			fmt.Fprintf(rc.cfg.Progress, "checkpoint write failed: %v\n", err)
		}
		return
	}
	if rc.cfg.Metrics != nil {
		rc.cfg.Metrics.Counter("checkpoints_written").Inc()
	}
}

// Run executes the full evaluation: every task is encoded once per strategy
// (deterministic encoding yields the identical instance, mirroring the
// paper's shared SMT files) and solved; solving time excludes encoding, as
// the paper measures backend time only. With cfg.Parallel > 1, tasks are
// distributed over a worker pool; results come back in deterministic order
// regardless of completion order.
//
// Failures never abort the sweep: panics are contained per run, budget and
// memory exhaustion classify the single task, and cancelling cfg.Context
// drains the workers and returns partial results (checkpointed when
// cfg.CheckpointPath is set). Runs found completed in cfg.Resume are
// restored instead of executed.
func Run(cfg Config) *Results {
	cfg.fill()
	res := &Results{Config: cfg}
	tasks := Tasks(cfg)
	workers := cfg.Parallel
	if workers <= 0 {
		workers = 1
	}
	var mkdirErr error
	if cfg.TraceDir != "" {
		if mkdirErr = os.MkdirAll(cfg.TraceDir, 0o755); mkdirErr != nil {
			cfg.TraceDir = ""
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("runs_total").Set(int64(len(tasks) * len(cfg.Strategies)))
	}
	if cfg.Board != nil {
		// Register every run up front so /runs shows the whole evaluation
		// from the first scrape, queued runs included.
		for _, task := range tasks {
			for _, strat := range cfg.Strategies {
				cfg.Board.Queue(RunID(task, strat))
			}
		}
	}

	type job struct {
		taskIdx  int
		stratIdx int
	}
	nStrat := len(cfg.Strategies)
	res.Runs = make([]RunResult, len(tasks)*nStrat)
	if mkdirErr != nil {
		// Surface the trace-dir failure on every run rather than silently
		// dropping traces.
		for i := range res.Runs {
			res.Runs[i].Err = mkdirErr
		}
		return res
	}

	rec := newRecorder(res, &cfg)
	defer rec.flush()
	resume := resumeIndex(cfg.Resume)

	if cfg.Incremental {
		runIncrementalSweeps(cfg, tasks, rec, resume, workers)
		return res
	}

	if workers == 1 {
		for i, task := range tasks {
			for si, strat := range cfg.Strategies {
				idx := i*nStrat + si
				if jr, ok := resume[resumeKey(task.ID(), strat.String())]; ok {
					rec.record(idx, resumedResult(task, strat, jr))
					continue
				}
				rec.record(idx, RunOne(task, strat, cfg))
			}
		}
		return res
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				idx := j.taskIdx*nStrat + j.stratIdx
				rec.record(idx, RunOne(tasks[j.taskIdx], cfg.Strategies[j.stratIdx], cfg))
			}
		}()
	}
	for ti, task := range tasks {
		for si, strat := range cfg.Strategies {
			if jr, ok := resume[resumeKey(task.ID(), strat.String())]; ok {
				rec.record(ti*nStrat+si, resumedResult(task, strat, jr))
				continue
			}
			jobs <- job{taskIdx: ti, stratIdx: si}
		}
	}
	close(jobs)
	wg.Wait()
	return res
}

// RunParallel is Run with one worker per CPU: maximal throughput for
// verdict/counter sweeps where per-task wall-clock timing fidelity is not
// needed.
func RunParallel(cfg Config) *Results {
	cfg.Parallel = runtime.NumCPU()
	return Run(cfg)
}

// RunOne runs a single task with one strategy through the verification
// pipeline (internal/pipeline). Panics anywhere in the pipeline (unrolling,
// encoding, search, verdict checking) are contained and classified as
// FailPanic on the returned result, so one pathological instance fails one
// run, not the process.
func RunOne(task Task, strat core.Strategy, cfg Config) (out RunResult) {
	cfg.fill()
	out = RunResult{Task: task, Strategy: strat}
	id := RunID(task, strat)
	cfg.Board.Running(id, task.Bound)
	if lg := obs.ForRun(cfg.Logger, id); lg != nil {
		lg.Info("run start", "bound", task.Bound, "strategy", strat.String(), "model", task.Model.String())
	}
	opts := cfg.options(task, strat)
	// The span trace backs both the Chrome export and the v2 JSONL span
	// records; when neither consumer is configured it stays nil and every
	// span call in the pipeline is a single-branch no-op.
	if cfg.Chrome != nil || cfg.TraceDir != "" {
		opts.Spans = obs.NewTrace(id)
	}
	// Observability: a private trace sink per run (workers never share
	// one), live metrics aggregated across workers via atomic counters.
	var sink *telemetry.JSONLSink
	defer func() {
		if r := recover(); r != nil {
			out.Status = sat.Unknown
			out.Err = &sat.StatusError{
				Kind: sat.FailPanic,
				Err:  fmt.Errorf("panic: %v\n%s", r, debug.Stack()),
			}
		}
		if sink != nil {
			// Also on the panic path, so a partial trace stays readable.
			if err := sink.Close(); err != nil && out.Err == nil {
				out.Err = err
			}
		}
		// Every outcome is terminal except cancellation: a cancelled run is
		// the one class `-resume` re-executes.
		out.Completed = out.Failure() != sat.FailCancelled
		cfg.Chrome.Add(opts.Spans)
	}()
	if cfg.Context != nil && cfg.Context.Err() != nil {
		out.Status = sat.Unknown
		out.Stop = sat.StopCancelled
		return out
	}
	if cfg.TraceDir != "" {
		var err error
		if sink, err = telemetry.NewFileSink(filepath.Join(cfg.TraceDir, TraceFileName(task, strat))); err != nil {
			out.Err = err
			return out
		}
		opts.TraceSink = sink
	}
	if cfg.Metrics != nil {
		metrics := telemetry.NewMetricsTracer(cfg.Metrics)
		opts.Tracer = metrics
		defer metrics.Flush()
		running := cfg.Metrics.Gauge("solves_running")
		running.Add(1)
		defer running.Add(-1)
	}
	var vc *encode.VC
	out.Result, vc, out.Err = pipeline.Run(task.Bench.Program, opts)
	if vc != nil {
		vc.Release()
	}
	return out
}

// byTask groups runs per task id and strategy.
func (r *Results) byTask() map[string]map[core.Strategy]RunResult {
	out := map[string]map[core.Strategy]RunResult{}
	for _, run := range r.Runs {
		id := run.Task.ID()
		if out[id] == nil {
			out[id] = map[core.Strategy]RunResult{}
		}
		out[id][run.Strategy] = run
	}
	return out
}
