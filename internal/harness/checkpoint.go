package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"zpre/internal/core"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
)

// SaveCheckpoint atomically writes the runs recorded so far (done[i] true)
// as a JSON export: the document is written to a temp file in the target
// directory and renamed over path, so a crash or signal mid-write never
// leaves a truncated checkpoint. A nil done saves every run.
func SaveCheckpoint(path string, res *Results, done []bool) error {
	doc := JSONResults{
		TimeoutSec:  res.Config.Timeout.Seconds(),
		Width:       res.Config.Width,
		StaticPrune: res.Config.StaticPrune,
		Dataflow:    res.Config.Dataflow,
		Bounds:      res.Config.Bounds,
	}
	for _, m := range res.Config.Models {
		doc.Models = append(doc.Models, m.String())
	}
	for _, s := range res.Config.Strategies {
		doc.Strategies = append(doc.Strategies, s.String())
	}
	for i, run := range res.Runs {
		if done != nil && !done[i] {
			continue
		}
		doc.Runs = append(doc.Runs, jsonRun(run))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ErrCorrupt marks a checkpoint file that exists but cannot be decoded — a
// torn write from a crash mid-save (only possible when the atomic tmp+rename
// was bypassed, e.g. by copying a file around), manual truncation, or plain
// garbage. Callers should treat it as "no checkpoint" (log and start fresh)
// rather than failing the run: errors.Is(err, ErrCorrupt) distinguishes it
// from I/O errors, which may be transient and are worth retrying.
var ErrCorrupt = errors.New("corrupt checkpoint")

// LoadCheckpoint reads a JSON export (full or checkpointed) for use as
// Config.Resume. A file that cannot be parsed — truncated, torn, or not
// JSON — returns an error wrapping ErrCorrupt so the caller can recover by
// starting fresh instead of aborting.
func LoadCheckpoint(path string) (*JSONResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc JSONResults
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w: %v", path, ErrCorrupt, err)
	}
	return &doc, nil
}

// LoadCheckpointLenient is LoadCheckpoint for resume paths that must not die
// on a damaged file: a corrupt (truncated/torn/garbage) checkpoint logs a
// warning to warn and returns (nil, nil) — start fresh, re-running
// everything — instead of failing the run. Missing files and other I/O
// errors are still returned, since a mistyped -resume path should fail loud
// and a transient read error is worth retrying.
func LoadCheckpointLenient(path string, warn io.Writer) (*JSONResults, error) {
	doc, err := LoadCheckpoint(path)
	if errors.Is(err, ErrCorrupt) {
		if warn != nil {
			fmt.Fprintf(warn, "checkpoint %s is corrupt (%v); starting fresh\n", path, err)
		}
		return nil, nil
	}
	return doc, err
}

// resumeKey identifies a (task, strategy) pair across sweeps.
func resumeKey(taskID, strategy string) string { return taskID + "\x00" + strategy }

// resumeIndex maps completed prior runs by (task, strategy). Cancelled
// (incomplete) entries are deliberately excluded: those are the runs a
// resumed sweep must execute.
func resumeIndex(prev *JSONResults) map[string]JSONRun {
	if prev == nil {
		return nil
	}
	idx := make(map[string]JSONRun, len(prev.Runs))
	for _, jr := range prev.Runs {
		if !jr.Completed {
			continue
		}
		idx[resumeKey(jr.Task, jr.Strategy)] = jr
	}
	return idx
}

// resumedResult reconstructs a RunResult from its checkpointed export form.
// Timings and counters round-trip through the JSON fields; the error chain
// is rebuilt as a StatusError so failure classification survives the resume.
func resumedResult(task Task, strat core.Strategy, jr JSONRun) RunResult {
	out := RunResult{
		Task:     task,
		Strategy: strat,
		Result: pipeline.Result{
			Status:       parseStatus(jr.Status),
			Stop:         parseStopReason(jr.StopReason),
			Solve:        secDur(jr.SolveSec),
			Encode:       secDur(jr.EncodeSec),
			Unroll:       secDur(jr.UnrollSec),
			Checked:      jr.Checked,
			CheckSkipped: jr.CheckSkipped,
		},
		Completed: true,
		Resumed:   true,
	}
	out.Incremental = jr.Incremental
	out.CumulativeSolve = secDur(jr.CumulativeSolveSec)
	out.Cumulative.Decisions = jr.CumDecisions
	out.Cumulative.Conflicts = jr.CumConflicts
	out.Timings.BCP = secDur(jr.BCPSec)
	out.Timings.Theory = secDur(jr.TheorySec)
	out.Timings.Analyze = secDur(jr.AnalyzeSec)
	out.Timings.Reduce = secDur(jr.ReduceSec)
	out.Timings.Inprocess = secDur(jr.InprocessSec)
	out.Stats.Decisions = jr.Decisions
	out.Stats.Propagations = jr.Propagations
	out.Stats.TheoryProps = jr.TheoryProps
	out.Stats.Conflicts = jr.Conflicts
	out.Stats.TheoryConfl = jr.TheoryConfl
	out.Stats.Restarts = jr.Restarts
	out.Stats.LearntClauses = jr.LearntClauses
	out.Stats.DeletedCls = jr.DeletedCls
	out.Stats.MaxTrail = jr.MaxTrail
	out.Stats.BlockerHits = jr.BlockerHits
	out.Stats.TierDemotions = jr.TierDemotions
	out.Stats.ChronoBTs = jr.ChronoBTs
	out.Stats.Inprocessings = jr.Inprocessings
	out.Stats.SubsumedCls = jr.SubsumedCls
	out.Stats.StrengthenedCls = jr.StrengthenedCls
	out.Stats.EliminatedVars = jr.EliminatedVars
	out.OrderStats.Asserts = jr.OrderAsserts
	out.OrderStats.Conflicts = jr.OrderConflicts
	out.OrderStats.PathQueries = jr.OrderPathQueries
	out.OrderStats.Propagations = jr.OrderProps
	out.VC.RFVars = jr.RFVars
	out.VC.WSVars = jr.WSVars
	out.VC.RFPruned = jr.RFPruned
	out.VC.WSPruned = jr.WSPruned
	out.VC.ValuePruned = jr.ValuePruned
	out.VC.RelPruned = jr.RelPruned
	out.VC.FoldedAssigns = jr.FoldedAssigns
	out.VC.FixedHB = jr.FixedHB
	out.VC.MHBFixedRF = jr.MHBFixedRF
	out.VC.MHBFixedFR = jr.MHBFixedFR
	out.VC.MHBPruned = jr.MHBPruned
	out.VC.RGInvariants = jr.RGInvariants
	out.RGProved = jr.RGProved
	out.RGStabilizeIters = jr.RGStabilizeIters
	out.RGSkippedPrefilter = jr.RGSkippedPrefilter
	if jr.Error != "" {
		kind := parseFailureKind(jr.Failure)
		if kind == sat.FailNone || kind == sat.FailTimeout {
			out.Err = errors.New(jr.Error)
		} else {
			out.Err = &sat.StatusError{Kind: kind, Err: errors.New(jr.Error)}
		}
	}
	return out
}

func secDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func parseStatus(s string) sat.Status {
	switch s {
	case "sat":
		return sat.Sat
	case "unsat":
		return sat.Unsat
	}
	return sat.Unknown
}

func parseStopReason(s string) sat.StopReason {
	for r := sat.StopNone; r <= sat.StopCancelled; r++ {
		if r.String() == s {
			return r
		}
	}
	return sat.StopNone
}

func parseFailureKind(s string) sat.FailureKind {
	for k := sat.FailNone; k <= sat.FailError; k++ {
		if k.String() == s {
			return k
		}
	}
	return sat.FailNone
}
