// Package zpre is a reproduction of "Interference Relation-Guided SMT
// Solving for Multi-Threaded Program Verification" (Fan, Liu, He; PPoPP
// 2022): a bounded model checker for multi-threaded programs under SC, TSO
// and PSO memory models, built on a from-scratch DPLL(T) engine whose
// decision order can be guided by the interference relation (read-from and
// write-serialization variables) of the encoded program.
//
// The package is a thin facade over the internal packages:
//
//	pipeline — the staged verification pipeline every entry point runs
//	cprog    — the concurrent program language, parser and unroller
//	memmodel — SC/TSO/PSO program-order rules
//	encode   — the partial-order verification-condition encoder
//	smt/sat  — the DPLL(T) engine (CDCL core + ordering theory)
//	core     — the paper's interference decision-order strategies
//
// Typical use:
//
//	prog, _ := zpre.ParseProgram("example", src)
//	rep, _ := zpre.Verify(prog, zpre.Options{
//	    Model:    zpre.TSO,
//	    Strategy: zpre.ZPRE,
//	    Unroll:   3,
//	})
//	fmt.Println(rep.Verdict) // Safe (unsat) or Unsafe (sat)
package zpre

import (
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/order"
	"zpre/internal/pipeline"
	"zpre/internal/sat"
)

// Re-exported memory models.
const (
	SC  = memmodel.SC
	TSO = memmodel.TSO
	PSO = memmodel.PSO
)

// Re-exported strategies (Table 3's three configurations, plus the
// static-analysis-seeded extension).
const (
	Baseline  = core.Baseline // stock VSIDS order — the paper's "Z3"
	ZPREMinus = core.ZPREMinus
	ZPRE      = core.ZPRE
	// ZPREStatic ranks interference variables by the static conflict score
	// of their event pair (racy pairs first) before the #write tie-break.
	ZPREStatic = core.ZPREStatic
)

// Verdict is the verification outcome at the given unrolling bound.
type Verdict = pipeline.Verdict

// Verdicts (see pipeline.Verdict).
const (
	Unknown       = pipeline.Unknown
	Safe          = pipeline.Safe
	Unsafe        = pipeline.Unsafe
	UnboundedSafe = pipeline.UnboundedSafe
)

// Options configures a Verify call: the memory model, strategy and bound,
// the pre-analyses (RG, StaticPrune, Dataflow, MHB), solver budgets,
// tracing and verdict checking. Each field is documented with the pipeline
// stage that reads it, in internal/pipeline.
type Options = pipeline.Options

// Report is the result of a Verify call.
type Report struct {
	Verdict Verdict
	// Status is the raw SMT status (Sat = Unsafe, Unsat = Safe).
	Status sat.Status
	// Stop says why an Unknown verdict stopped (deadline, conflict or
	// decision budget, memout, cancelled); sat.StopNone for a verdict.
	Stop sat.StopReason
	// SolverStats carries decisions/propagations/conflicts (Table 2).
	SolverStats sat.Stats
	// EncodeStats summarises the encoded VC (events, rf/ws variables, ...).
	EncodeStats encode.Stats
	// SolveTime is the backend solving time (what the paper measures).
	SolveTime time.Duration
	// EncodeTime is the frontend encoding time.
	EncodeTime time.Duration
	// SearchTimings is the in-solve phase split (Options.TimePhases).
	SearchTimings sat.SearchTimings
	// OrderStats are the ordering theory's work counters (cycle checks,
	// theory conflicts, eager propagations).
	OrderStats order.Stats
	// ProofChecked is true when the verdict was validated independently
	// (Options.Check, VerifyWithProof): a Safe verdict's refutation by the
	// proof checker, an Unsafe verdict's witness schedule by replay.
	ProofChecked bool
	// RGProved is true when the verdict is UnboundedSafe: the
	// rely-guarantee engine proved the program at every bound and the SMT
	// backend never ran.
	RGProved bool
	// RGStabilizeIters is the engine's outer fixpoint round count
	// (Options.RG only; zero otherwise).
	RGStabilizeIters int
	// RGSkippedPrefilter is true when the rely-guarantee pre-filter
	// (Options.RGPrefilter) skipped the proof attempt — the assertions were
	// not domain-expressible, or round 1 refuted them under the strongest
	// rely — and the SMT backend decided the program alone.
	RGSkippedPrefilter bool
}

// ParseProgram parses the textual program form (see internal/cprog).
func ParseProgram(name, src string) (*cprog.Program, error) {
	return cprog.Parse(name, src)
}

// Verify runs the program through the verification pipeline: the optional
// rely-guarantee proof, unrolling to the configured bound, encoding under
// the memory model, the strategy's decision order and the solve. With
// Options.Check the verdict is also validated independently, and a failed
// validation is returned as an error — the solver may not vouch for itself.
func Verify(p *cprog.Program, opts Options) (Report, error) {
	res, vc, err := pipeline.Run(p, opts)
	if vc != nil {
		// The report copies everything it keeps: recycle the instance's
		// solver, theory, builder and decide storage for the next query.
		vc.Release()
	}
	if err == nil {
		err = res.CheckErr
	}
	if err != nil {
		return Report{}, err
	}
	return report(res), nil
}

// report renders a pipeline result as a Verify report.
func report(res pipeline.Result) Report {
	return Report{
		Verdict:            res.Verdict(),
		Status:             res.Status,
		Stop:               res.Stop,
		SolverStats:        res.Stats,
		EncodeStats:        res.VC,
		SolveTime:          res.Solve,
		EncodeTime:         res.Encode,
		SearchTimings:      res.Timings,
		OrderStats:         res.OrderStats,
		ProofChecked:       res.Checked,
		RGProved:           res.RGProved,
		RGStabilizeIters:   res.RGStabilizeIters,
		RGSkippedPrefilter: res.RGSkippedPrefilter,
	}
}

// FindMinimalBound searches unroll bounds 1..maxBound for the smallest
// bound at which the program is unsafe (the paper's k*: "the minimal
// unrolling bound that violates the given property", §5). It returns that
// bound and the corresponding report. If no bound up to maxBound violates,
// it returns 0 and the report of the last (safe or unknown) bound.
func FindMinimalBound(p *cprog.Program, opts Options, maxBound int) (int, Report, error) {
	if opts.RG && opts.RGResult == nil {
		// The rely-guarantee result is bound-independent: prove once.
		res, err := pipeline.Prove(p, opts)
		if err != nil {
			return 0, Report{}, err
		}
		opts.RGResult = res
	}
	var last Report
	for k := 1; k <= maxBound; k++ {
		opts.Unroll = k
		rep, err := Verify(p, opts)
		if err != nil {
			return 0, Report{}, err
		}
		last = rep
		if rep.Verdict == Unsafe {
			return k, rep, nil
		}
		if rep.Verdict == UnboundedSafe {
			break // every bound is safe; higher bounds can't violate
		}
		if !p.HasLoops() {
			break // higher bounds encode the identical instance
		}
	}
	return 0, last, nil
}

// AssertReport is the per-assertion outcome of VerifyEach.
type AssertReport struct {
	// Index is the assertion's ordinal in encoding order.
	Index int
	// Thread is the thread the assertion appears in (0 = main's post block).
	Thread int
	// Verdict for this assertion alone.
	Verdict Verdict
	// SolveTime for this assertion's incremental query.
	SolveTime time.Duration
}

// VerifyEach checks every assertion of the program separately: the VC is
// encoded once with selector-guarded violations and each property is solved
// as an incremental assumption query on the same solver, so learnt clauses
// and variable activities carry over between properties. The rg stage does
// not apply (a proof outline covers all assertions at once).
func VerifyEach(p *cprog.Program, opts Options) ([]AssertReport, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	eo := opts.EncodeOptions(nil)
	eo.SelectableAsserts = true
	vc, err := encode.Program(cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume), eo)
	if err != nil {
		return nil, err
	}
	defer vc.Release()
	_, decider := pipeline.Decide(vc, opts)
	var out []AssertReport
	for i, sel := range vc.Selectors {
		res, err := vc.Builder.SolveAssuming(opts.SolveOptions(decider, nil), sel)
		if err != nil {
			return nil, err
		}
		out = append(out, AssertReport{
			Index:     i,
			Thread:    vc.AssertThreads[i],
			Verdict:   pipeline.StatusVerdict(res.Status),
			SolveTime: res.Elapsed,
		})
	}
	return out, nil
}

// VerifyWithProof runs Verify in checked mode: a Safe (unsat) verdict's
// inference trace is validated by the independent proof checker
// (internal/proof), and an Unsafe (sat) verdict's model is linearised into
// a witness schedule whose memory semantics are validated
// (internal/witness). A rejection in either direction is returned as an
// error. The rg stage is skipped: a proof exists only when the SMT backend
// runs.
func VerifyWithProof(p *cprog.Program, opts Options) (Report, error) {
	opts.RG = false
	opts.Check = true
	opts.CheckLearntCap = 0
	return Verify(p, opts)
}
