package harness

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"zpre/internal/core"
	"zpre/internal/encode"
	"zpre/internal/incremental"
	"zpre/internal/obs"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
)

// groupTask pairs a task with its slot in the Tasks order, so sweep results
// land in the same deterministic positions fresh mode fills.
type groupTask struct {
	task Task
	idx  int // index into the task list
}

// sweepGroup is one incremental unit of work: every bound of one
// (benchmark, model) pair, solved in ascending order on a single live
// solver.
type sweepGroup struct {
	tasks []groupTask
}

// sweepGroups splits the task list into (benchmark, model) groups. Tasks
// emits a group's bounds contiguously; they are re-sorted ascending so the
// sweep extends monotonically even with an unordered Config.Bounds.
func sweepGroups(tasks []Task) []sweepGroup {
	var groups []sweepGroup
	for i, t := range tasks {
		n := len(groups)
		if n == 0 ||
			groups[n-1].tasks[0].task.Bench.Name != t.Bench.Name ||
			groups[n-1].tasks[0].task.Bench.Subcategory != t.Bench.Subcategory ||
			groups[n-1].tasks[0].task.Model != t.Model {
			groups = append(groups, sweepGroup{})
			n++
		}
		groups[n-1].tasks = append(groups[n-1].tasks, groupTask{task: t, idx: i})
	}
	for gi := range groups {
		ts := groups[gi].tasks
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j].task.Bound < ts[j-1].task.Bound; j-- {
				// Keep the result slots: only the solve order changes.
				ts[j].task, ts[j-1].task = ts[j-1].task, ts[j].task
			}
		}
	}
	return groups
}

// runIncrementalSweeps executes the evaluation in incremental mode: one
// sweep per (benchmark, model, strategy), parallelised across sweeps.
func runIncrementalSweeps(cfg Config, tasks []Task, rec *recorder, resume map[string]JSONRun, workers int) {
	groups := sweepGroups(tasks)
	nStrat := len(cfg.Strategies)
	type job struct {
		g  sweepGroup
		si int
	}
	if workers <= 1 {
		for _, g := range groups {
			for si := range cfg.Strategies {
				runSweepGroup(g, si, cfg, rec, resume, nStrat)
			}
		}
		return
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				runSweepGroup(j.g, j.si, cfg, rec, resume, nStrat)
			}
		}()
	}
	for _, g := range groups {
		for si := range cfg.Strategies {
			jobs <- job{g: g, si: si}
		}
	}
	close(jobs)
	wg.Wait()
}

// newSweep builds the live sweep for a group. The per-bound solver budgets
// come straight from the config; tracing hooks are installed per bound.
func newSweep(task Task, strat core.Strategy, cfg Config) (*incremental.Sweep, error) {
	opts := incremental.Options{
		Model:          task.Model,
		Strategy:       strat,
		Width:          cfg.Width,
		Timeout:        cfg.Timeout,
		MaxConflicts:   cfg.MaxConflicts,
		MaxDecisions:   cfg.MaxDecisions,
		MaxMemoryBytes: cfg.MaxMemoryBytes,
		Context:        cfg.Context,
		Seed:           cfg.Seed,
		TimePhases:     cfg.TimePhases,
		CheckWitness:   cfg.CheckVerdicts,
		Dataflow:       cfg.Dataflow,
		MHB:            cfg.MHB,
	}
	if cfg.RG {
		// Only unproven pairs reach a sweep (runSweepGroup short-circuits
		// proved ones); their bound-independent invariant ranges are
		// asserted once per read creation, base and delta alike.
		if res := cfg.rgResult(task); !res.Proved {
			opts.RGRanges = res.Ranges
		}
	}
	return incremental.New(task.Bench.Program, opts)
}

// replaySweep rebuilds a fresh sweep and replays the encoding through the
// given bound without solving. Used after a contained panic (the live
// solver may be poisoned mid-search) and when checkpoint-resumed bounds
// must be skipped but the formula state still has to advance. Returns nil
// when the replay itself fails — later bounds then report the setup error.
func replaySweep(task Task, strat core.Strategy, cfg Config, upto int) (s *incremental.Sweep) {
	defer func() {
		if recover() != nil {
			s = nil
		}
	}()
	s, err := newSweep(task, strat, cfg)
	if err != nil {
		return nil
	}
	for s.Bound() < upto {
		if err := s.ExtendOnly(); err != nil {
			return nil
		}
	}
	return s
}

// advanceTo extends a live sweep's encoding (without solving) until it sits
// at the given bound, containing panics. Reports whether the sweep is still
// usable.
func advanceTo(s *incremental.Sweep, bound int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for s.Bound() < bound {
		if err := s.ExtendOnly(); err != nil {
			return false
		}
	}
	return true
}

// runSweepGroup sweeps one (benchmark, model) group with one strategy,
// recording one RunResult per bound. Failures stay contained to their
// bound: a panic at bound k classifies that run as FailPanic and later
// bounds continue on a replayed sweep; cancellation marks the remaining
// bounds incomplete, exactly like fresh mode.
func runSweepGroup(g sweepGroup, si int, cfg Config, rec *recorder, resume map[string]JSONRun, nStrat int) {
	strat := cfg.Strategies[si]
	if cfg.RG {
		first := g.tasks[0].task
		if res := cfg.rgResult(first); res.Proved {
			// The engine proved the pair at every bound: the whole sweep is
			// discharged without building a solver.
			for _, gt := range g.tasks {
				idx := gt.idx*nStrat + si
				if jr, ok := resume[resumeKey(gt.task.ID(), strat.String())]; ok {
					r := resumedResult(gt.task, strat, jr)
					r.Incremental = true
					rec.record(idx, r)
					continue
				}
				rec.record(idx, RunResult{
					Task: gt.task, Strategy: strat, Incremental: true, Completed: true,
					Result: pipeline.Result{
						Status: sat.Unsat, RGProved: true,
						RGStabilizeIters: res.StabilizeIters,
						CheckSkipped:     cfg.CheckVerdicts,
					},
				})
			}
			return
		}
	}
	sweep, setupErr := newSweep(g.tasks[0].task, strat, cfg)
	var cumSolve time.Duration
	var lastVC encode.Stats
	cancelled := false
	for _, gt := range g.tasks {
		task := gt.task
		idx := gt.idx*nStrat + si
		if jr, ok := resume[resumeKey(task.ID(), strat.String())]; ok {
			r := resumedResult(task, strat, jr)
			r.Incremental = true
			cumSolve += r.Solve
			if r.CumulativeSolve == 0 {
				r.CumulativeSolve = cumSolve
			}
			lastVC = r.VC
			rec.record(idx, r)
			if sweep != nil && !advanceTo(sweep, task.Bound) {
				sweep = nil
			}
			continue
		}
		if cancelled || (cfg.Context != nil && cfg.Context.Err() != nil) {
			rec.record(idx, RunResult{
				Task: task, Strategy: strat, Incremental: true,
				Result: pipeline.Result{Status: sat.Unknown, Stop: sat.StopCancelled},
			})
			continue
		}
		out := runSweepBound(sweep, task, strat, cfg, setupErr, &cumSolve)
		switch out.Failure() {
		case sat.FailCancelled:
			cancelled = true
		case sat.FailPanic, sat.FailError:
			// The live solver (or encoder) may be mid-operation: isolate the
			// failure to this bound by replaying a fresh sweep up to here.
			sweep = replaySweep(task, strat, cfg, task.Bound)
			setupErr = nil
		}
		if out.Err == nil {
			lastVC = out.VC
		}
		rec.record(idx, out)
	}
	if sweep != nil {
		sweep.Release()
	}
	// Each bound's VC stats are cumulative for the whole sweep, so only the
	// deepest completed bound is folded into the metrics — counting every
	// bound would multiply the sweep's prune counts by the bound count.
	if m := cfg.Metrics; m != nil {
		addDataflowCounters(m, lastVC)
	}
}

// runSweepBound extends the sweep to one task's bound and solves it,
// containing panics like RunOne does.
func runSweepBound(sweep *incremental.Sweep, task Task, strat core.Strategy, cfg Config, setupErr error, cumSolve *time.Duration) (out RunResult) {
	out = RunResult{Task: task, Strategy: strat, Incremental: true}
	id := RunID(task, strat)
	cfg.Board.Running(id, task.Bound)
	if lg := obs.ForRun(cfg.Logger, id); lg != nil {
		lg.Info("run start", "bound", task.Bound, "strategy", strat.String(),
			"model", task.Model.String(), "incremental", true)
	}
	var tr *obs.Trace
	var trRoot int
	if cfg.Chrome != nil {
		tr = obs.NewTrace(id)
		trRoot = tr.Start("run")
	}
	defer func() {
		if r := recover(); r != nil {
			out.Status = sat.Unknown
			out.Err = &sat.StatusError{
				Kind: sat.FailPanic,
				Err:  fmt.Errorf("panic: %v\n%s", r, debug.Stack()),
			}
		}
		out.Completed = out.Failure() != sat.FailCancelled
		tr.End(trRoot)
		cfg.Chrome.Add(tr)
	}()
	if cfg.RG {
		res := cfg.rgResult(task)
		out.RGStabilizeIters = res.StabilizeIters
		out.RGSkippedPrefilter = res.SkippedPrefilter
	}
	if sweep == nil {
		if setupErr == nil {
			setupErr = fmt.Errorf("incremental sweep unavailable after an earlier failure")
		}
		out.Err = setupErr
		return out
	}
	if sweep.Bound() >= task.Bound {
		out.Err = fmt.Errorf("sweep already at bound %d, cannot re-solve bound %d", sweep.Bound(), task.Bound)
		return out
	}
	if cfg.Faults != nil {
		label := task.ID() + "/" + strat.String()
		sweep.SetInstruments(cfg.Faults.Tracer(label, nil), func(th sat.Theory) sat.Theory {
			return cfg.Faults.Theory(label, th)
		})
	}
	for sweep.Bound() < task.Bound-1 {
		if err := sweep.ExtendOnly(); err != nil {
			out.Err = err
			return out
		}
	}
	br, err := sweep.Next()
	if err != nil {
		out.Err = err
		return out
	}
	// The bound's encode/solve split and the solver's in-solve phase timers
	// are laid out as measured children of the run span.
	tr.AddChild(trRoot, "encode", br.Encode)
	pipeline.AddSolvePhases(tr, tr.AddChild(trRoot, "solve", br.Solve), br.Timings)
	out.Status = br.Status
	out.Stop = br.Stop
	out.Encode = br.Encode
	out.Solve = br.Solve
	out.Stats = br.Stats
	out.Cumulative = br.Cumulative
	out.Timings = br.Timings
	out.OrderStats = br.OrderStats
	out.VC = br.EncodeStats
	*cumSolve += br.Solve
	out.CumulativeSolve = *cumSolve
	if cfg.CheckVerdicts {
		switch br.Status {
		case sat.Sat:
			out.Checked = br.WitnessChecked
			out.CheckErr = br.WitnessErr
		case sat.Unsat:
			// Proof checking needs the fresh pipeline: a recorded trace is
			// only valid under this bound's assumptions.
			out.CheckSkipped = true
		}
	}
	return out
}
