// Package incremental drives unroll sweeps on a single live solver. Per
// (program, model, strategy) it keeps one encode.Incremental — hence one
// sat.Solver, one circuit and one ordering theory — across bounds 1..k,
// solving each bound under its activation assumptions so learned clauses,
// VSIDS activities and saved phases carry over between bounds. Verdicts are
// equisatisfiable with the fresh per-bound pipeline (see the package
// comment of internal/encode's incremental encoder); the differential test
// layer at the repository root enforces that bound for bound.
package incremental

import (
	"context"
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/order"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
)

// Verdict is the per-bound answer (Sat = Unsafe, Unsat = Safe).
type Verdict int

// Verdicts.
const (
	Unknown Verdict = iota
	Safe
	Unsafe
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case Unsafe:
		return "unsafe"
	}
	return "unknown"
}

// ErrUnsupported re-exports the encoder's unsupported-shape sentinel so
// callers can fall back to the fresh pipeline without importing encode.
var ErrUnsupported = encode.ErrUnsupported

// Options configures a sweep. Budgets (Timeout, MaxConflicts, MaxDecisions)
// apply per bound, not to the sweep as a whole.
type Options struct {
	Model    memmodel.Model
	Strategy core.Strategy
	// Width is the program integer bit width (default 8).
	Width int
	// Unwind selects the loop-frontier semantics (default UnwindAssume).
	Unwind cprog.UnrollMode
	// Timeout is the per-bound solve budget (0 = none).
	Timeout time.Duration
	// MaxConflicts / MaxDecisions / MaxMemoryBytes are per-bound solver
	// budgets, as in smt.Options.
	MaxConflicts   uint64
	MaxDecisions   uint64
	MaxMemoryBytes int64
	// Context cancels solving cooperatively.
	Context context.Context
	// Seed drives the strategies' random polarity choice.
	Seed int64
	// Polarity overrides the decision polarity mode.
	Polarity core.PolarityMode
	// EagerOrderPropagation switches the theory to eager propagation.
	EagerOrderPropagation bool
	// Tracer observes each bound's search (telemetry seam); TimePhases adds
	// the per-phase time split.
	Tracer     sat.Tracer
	TimePhases bool
	// WrapTheory wraps the ordering theory per solve (fault-injection seam).
	WrapTheory func(sat.Theory) sat.Theory
	// CheckWitness validates Sat verdicts by extracting and replaying a
	// witness interleaving. (Unsat proof checking is not available
	// incrementally: the recorded trace is only valid under the bound's
	// assumptions; the differential tests check proofs on the fresh path.)
	CheckWitness bool
	// Dataflow enables the value-flow pre-analysis on the sweep's source
	// program (see encode.Options.Dataflow); its facts are bound-
	// independent, so pruning composes with the delta encoding.
	Dataflow bool
	// MHB is accepted for configuration symmetry with the fresh pipeline
	// and ignored: happens-before edge fixing is not bound-monotone, so
	// the delta encoder forces it off (see encode.NewIncremental).
	MHB bool
	// RGRanges injects rely-guarantee invariant ranges as guarded per-read
	// constraints (see encode.Options.RGRanges). The ranges hold at every
	// unrolling bound, so each constraint is asserted once when its read is
	// created — base-bound reads at the base encoding, delta reads with
	// their delta — and composes with the activation-literal sweep.
	RGRanges map[string]dataflow.Interval
}

// BoundResult is the outcome of one bound of a sweep.
type BoundResult struct {
	Bound   int
	Verdict Verdict
	Status  sat.Status
	Stop    sat.StopReason
	// Encode is the time spent extending the encoding to this bound; Solve
	// is this bound's search time.
	Encode time.Duration
	Solve  time.Duration
	// Stats holds only this bound's solver-counter increments; Cumulative
	// the totals since the sweep started.
	Stats      sat.Stats
	Cumulative sat.Stats
	// EncodeStats are the cumulative formula-size counters at this bound.
	EncodeStats encode.Stats
	Timings     sat.SearchTimings
	OrderStats  order.Stats
	// WitnessChecked/WitnessErr report Sat-verdict validation
	// (Options.CheckWitness).
	WitnessChecked bool
	WitnessErr     error
}

// Sweep is an in-progress incremental unroll sweep.
type Sweep struct {
	inc  *encode.Incremental
	opts Options
}

// New prepares a sweep. Programs the incremental encoder cannot handle
// return an error wrapping ErrUnsupported; callers should fall back to the
// fresh per-bound pipeline.
func New(p *cprog.Program, opts Options) (*Sweep, error) {
	if opts.Width == 0 {
		opts.Width = 8
	}
	inc, err := encode.NewIncremental(p, encode.Options{
		Model:    opts.Model,
		Width:    opts.Width,
		Unwind:   opts.Unwind,
		Dataflow: opts.Dataflow,
		MHB:      opts.MHB,
		RGRanges: opts.RGRanges,
	})
	if err != nil {
		return nil, err
	}
	return &Sweep{inc: inc, opts: opts}, nil
}

// Release hands the sweep's solving storage back to the pools the next
// instance draws from (see encode.VC.Release). The sweep and its VC are
// unusable afterwards; releasing twice is a no-op.
func (s *Sweep) Release() { s.inc.VC().Release() }

// Bound returns the last extended bound (0 before the first Next).
func (s *Sweep) Bound() int { return s.inc.Bound() }

// VC exposes the live verification condition (for witness re-extraction
// and diagnostics).
func (s *Sweep) VC() *encode.VC { return s.inc.VC() }

// ExtendOnly advances the encoding one bound without solving. Checkpoint
// resume uses it to replay already-completed bounds so the formula state
// matches before the first live solve.
func (s *Sweep) ExtendOnly() error {
	_, err := s.inc.Extend()
	return err
}

// SetInstruments replaces the tracer and theory-wrap hooks for subsequent
// bounds. The harness uses it to re-label fault injection and telemetry per
// bound, since one Options covers the whole sweep.
func (s *Sweep) SetInstruments(tracer sat.Tracer, wrap func(sat.Theory) sat.Theory) {
	s.opts.Tracer = tracer
	s.opts.WrapTheory = wrap
}

// Next extends the encoding to the next bound and solves it. The decision
// order is rebuilt per bound from the current variable names, so newly
// arrived interference variables take their place in the strategy's order.
func (s *Sweep) Next() (BoundResult, error) {
	encStart := time.Now()
	ba, err := s.inc.Extend()
	if err != nil {
		return BoundResult{Bound: s.inc.Bound()}, err
	}
	out := BoundResult{Bound: ba.Bound, Encode: time.Since(encStart)}
	vc := s.inc.VC()

	opts := s.opts.stages()
	_, decider := pipeline.Decide(vc, opts)
	o := opts.SolveOptions(decider, s.opts.Tracer)
	o.WrapTheory = s.opts.WrapTheory
	r, err := vc.Builder.SolveAssuming(o, ba.Act, ba.Err)
	if err != nil {
		return out, err
	}
	out.Status = r.Status
	out.Stop = r.Stop
	out.Solve = r.Elapsed
	out.Stats = r.StatsDelta
	out.Cumulative = r.Stats
	out.EncodeStats = vc.Stats
	out.Timings = r.Timings
	out.OrderStats = r.OrderStats
	switch r.Status {
	case sat.Sat:
		out.Verdict = Unsafe
	case sat.Unsat:
		out.Verdict = Safe
	}
	if r.Status == sat.Sat && s.opts.CheckWitness {
		out.WitnessChecked, _, out.WitnessErr = pipeline.Check(vc, r.Status, 0)
	}
	return out, nil
}

// stages maps the sweep's options onto the pipeline stages it shares with
// the fresh path: decide and solve.
func (o Options) stages() pipeline.Options {
	return pipeline.Options{
		Strategy:              o.Strategy,
		Seed:                  o.Seed,
		Polarity:              o.Polarity,
		Timeout:               o.Timeout,
		MaxConflicts:          o.MaxConflicts,
		MaxDecisions:          o.MaxDecisions,
		MaxMemoryBytes:        o.MaxMemoryBytes,
		Context:               o.Context,
		EagerOrderPropagation: o.EagerOrderPropagation,
		TimePhases:            o.TimePhases,
	}
}

// Run sweeps bounds 1..maxBound and returns one result per bound. It stops
// early on a hard error; Unknown verdicts (budget exhaustion) do not stop
// the sweep — later bounds still solve on the shared state.
func Run(p *cprog.Program, opts Options, maxBound int) ([]BoundResult, error) {
	s, err := New(p, opts)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	var out []BoundResult
	for k := 1; k <= maxBound; k++ {
		br, err := s.Next()
		if err != nil {
			return out, err
		}
		out = append(out, br)
	}
	return out, nil
}
