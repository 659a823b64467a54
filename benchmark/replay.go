package main

import (
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/incremental"
	"zpre/internal/obs"
	"zpre/internal/order"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
)

// calls accumulates one layer's calls: wall time and the heap allocations
// made between the call's entry and return.
type calls struct {
	n           int
	dur         time.Duration
	objs, bytes uint64
}

// measure runs f as one call of the layer, inside a span named name.
func (c *calls) measure(ac *allocCounter, tr *obs.Trace, name string, f func()) int {
	id := tr.Start(name)
	b0, o0 := ac.read()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	b1, o1 := ac.read()
	tr.End(id)
	c.n++
	c.dur += d
	c.objs += o1 - o0
	c.bytes += b1 - b0
	return id
}

func (c *calls) meanUs() float64 { return float64(c.dur) / float64(time.Microsecond) / float64(c.n) }

// layers accumulates the traced replay. Every call into a layer is one of
// the public functions the verifier's pipeline is built from, timed from
// the outside; nothing inside the program is instrumented.
type layers struct {
	ac *allocCounter

	rg, unroll, encode, core, solve calls
	rgProved, rgSkipped, rgIters    int

	enc          encode.Stats // summed over encode calls
	interference int          // summed over decider set-ups
	timings      sat.SearchTimings
	sat          sat.Stats
	order        order.Stats

	// The incremental reference: Sweep.Next timed from outside, and the
	// encode/solve split each BoundResult reports.
	next                 calls
	incEncode, incSolve  time.Duration
	clausesFinal, sweeps int

	// Wall time of the untraced reference calls and of the replays, for
	// the tracing overhead.
	untraced, traced time.Duration
	queries          int
}

func newLayers() *layers { return &layers{ac: newAllocCounter()} }

// reference answers the query through its public entry point. Sweeps go
// through incremental.New and Sweep.Next, the calls incremental.Run makes,
// so each bound can be timed from outside.
func (l *layers) reference(q *query) ([]answer, error) {
	if !q.sweep {
		return q.verify()
	}
	s, err := incremental.New(q.bench.Program, sweepOptions(q.opts))
	if err != nil {
		return nil, err
	}
	var brs []incremental.BoundResult
	for k := 1; k <= q.opts.Unroll; k++ {
		var br incremental.BoundResult
		l.next.measure(l.ac, nil, "incremental.next", func() { br, err = s.Next() })
		if err != nil {
			return nil, err
		}
		l.incEncode += br.Encode
		l.incSolve += br.Solve
		brs = append(brs, br)
	}
	l.clausesFinal += brs[len(brs)-1].EncodeStats.Clauses
	l.sweeps++
	return sweepAnswers(brs), nil
}

// replay answers the query one layer at a time, recording each call.
func (l *layers) replay(q *query, tr *obs.Trace) ([]answer, error) {
	if q.sweep {
		return l.replaySweep(q, tr)
	}
	o := q.opts
	p := q.bench.Program
	var ranges map[string]dataflow.Interval
	if o.RG {
		var res *rg.Result
		var err error
		l.rg.measure(l.ac, tr, "rg.prove", func() {
			res, err = rg.Prove(p, rg.Options{Model: o.Model, Width: o.Width, Domain: o.RGDomain, Prefilter: o.RGPrefilter})
		})
		if err != nil {
			return nil, err
		}
		l.rgIters += res.StabilizeIters
		if res.SkippedPrefilter {
			l.rgSkipped++
		}
		if res.Proved {
			l.rgProved++
			return []answer{{v: vSafe}}, nil
		}
		ranges = res.Ranges
	}
	var unrolled *cprog.Program
	l.unroll.measure(l.ac, tr, "cprog.unroll", func() {
		unrolled = cprog.Unroll(p, o.Unroll, cprog.UnwindAssume)
	})
	var vc *encode.VC
	var err error
	l.encode.measure(l.ac, tr, "encode.program", func() {
		vc, err = encode.Program(unrolled, encode.Options{
			Model:       o.Model,
			Width:       o.Width,
			StaticPrune: o.StaticPrune,
			Dataflow:    o.Dataflow,
			MHB:         o.MHB,
			RGRanges:    ranges,
		})
	})
	if err != nil {
		return nil, err
	}
	l.addEncode(vc.Stats)
	var prev order.Stats
	a, err := l.decideAndSolve(vc, q, tr, &prev)
	if err != nil {
		return nil, err
	}
	return []answer{a}, nil
}

// replaySweep replays an incremental sweep: one encoder extension, decider
// set-up and assumption solve per bound, as Sweep.Next makes them.
func (l *layers) replaySweep(q *query, tr *obs.Trace) ([]answer, error) {
	o := q.opts
	var inc *encode.Incremental
	var prev order.Stats
	var out []answer
	for k := 1; k <= o.Unroll; k++ {
		var ba encode.BoundAssumptions
		var err error
		l.encode.measure(l.ac, tr, "encode.extend", func() {
			if inc == nil {
				inc, err = encode.NewIncremental(q.bench.Program, encode.Options{Model: o.Model, Width: o.Width})
				if err != nil {
					return
				}
			}
			ba, err = inc.Extend()
		})
		if err != nil {
			return out, err
		}
		l.addEncode(inc.VC().Stats)
		a, err := l.decideAndSolve(inc.VC(), q, tr, &prev, ba.Act, ba.Err)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// decideAndSolve builds the strategy's decider and solves the VC under the
// assumptions. The decider gets the query's seed and nothing else, as in
// zpre.Verify and Sweep.Next for the baseline, zpre- and zpre strategies
// (only zpre+static would also take a score). prev holds the builder's
// cumulative theory counters from its previous solve.
func (l *layers) decideAndSolve(vc *encode.VC, q *query, tr *obs.Trace, prev *order.Stats, assumps ...smt.Bool) (answer, error) {
	var decider sat.Decider
	var infos []core.VarInfo
	l.core.measure(l.ac, tr, "core.decider", func() {
		infos = core.Classify(vc.Builder.NamedVars())
		if d := core.NewDecider(q.opts.Strategy, infos, core.Config{Seed: q.opts.Seed}); d != nil {
			decider = d
		}
	})
	for _, vi := range infos {
		if vi.Class.Interference() {
			l.interference++
		}
	}
	var res smt.Result
	var err error
	id := l.solve.measure(l.ac, tr, "smt.solve", func() {
		res, err = vc.Builder.SolveAssuming(smt.Options{
			Decider:    decider,
			Deadline:   time.Now().Add(queryTimeout),
			TimePhases: true,
		}, assumps...)
	})
	if err != nil {
		return answer{}, err
	}
	tr.AddChild(id, "solve.bcp", res.Timings.BCP)
	tr.AddChild(id, "solve.theory", res.Timings.Theory)
	tr.AddChild(id, "solve.analyze", res.Timings.Analyze)
	tr.AddChild(id, "solve.reduce", res.Timings.Reduce)
	tr.AddChild(id, "solve.inprocess", res.Timings.Inprocess)
	l.timings.Add(res.Timings)
	l.sat.Add(res.StatsDelta)
	l.order.Conflicts += res.OrderStats.Conflicts - prev.Conflicts
	l.order.PathQueries += res.OrderStats.PathQueries - prev.PathQueries
	*prev = res.OrderStats
	d := res.StatsDelta
	return answer{fromStatus(res.Status), d.Decisions, d.Conflicts}, nil
}

func (l *layers) addEncode(s encode.Stats) {
	e := &l.enc
	e.Clauses += s.Clauses
	e.Variables += s.Variables
	e.RFVars += s.RFVars
	e.WSVars += s.WSVars
	e.Events += s.Events
	e.StaticTime += s.StaticTime
	e.DataflowTime += s.DataflowTime
	e.RFPruned += s.RFPruned
	e.WSPruned += s.WSPruned
	e.ValuePruned += s.ValuePruned
	e.RelPruned += s.RelPruned
	e.MHBPruned += s.MHBPruned
	e.FixedHB += s.FixedHB
	e.MHBFixedRF += s.MHBFixedRF
	e.MHBFixedFR += s.MHBFixedFR
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// report adds the per-layer metrics of every layer the replay called.
// Times and allocations are means per call; counts are means per call of
// the layer that produces them. used is what the traced phase used.
func (l *layers) report(r *report, used usage) {
	per := func(c *calls, v float64) float64 { return v / float64(c.n) }
	if c := &l.unroll; c.n > 0 {
		r.addTime("cprog.unroll_us", "us", c.meanUs(), "")
		r.add("cprog.unroll_allocs", "count", per(c, float64(c.objs)), "")
	}
	if c := &l.rg; c.n > 0 {
		r.addTime("rg.prove_us", "us", c.meanUs(), "")
		r.add("rg.prove_allocs", "count", per(c, float64(c.objs)), "")
		r.add("rg.proved_frac", "ratio", per(c, float64(l.rgProved)), "")
		r.add("rg.prefilter_skip_frac", "ratio", per(c, float64(l.rgSkipped)), "")
		r.add("rg.stabilize_iters", "count", per(c, float64(l.rgIters)), "")
	}
	if c := &l.encode; c.n > 0 {
		e := &l.enc
		pruned := e.RFPruned + e.WSPruned + e.ValuePruned + e.RelPruned + e.MHBPruned
		r.addTime("encode.us", "us", c.meanUs(), "")
		r.add("encode.allocs", "count", per(c, float64(c.objs)), "")
		r.add("encode.alloc_kb", "KiB", per(c, float64(c.bytes)/1024), "")
		r.add("encode.clauses", "count", per(c, float64(e.Clauses)), "")
		r.add("encode.vars", "count", per(c, float64(e.Variables)), "")
		r.add("encode.rf_vars", "count", per(c, float64(e.RFVars)), "")
		r.add("encode.ws_vars", "count", per(c, float64(e.WSVars)), "")
		r.add("encode.events", "count", per(c, float64(e.Events)), "")
		r.addTime("encode.static_us", "us", per(c, us(e.StaticTime)), "")
		r.addTime("encode.dataflow_us", "us", per(c, us(e.DataflowTime)), "")
		r.add("facts.pruned_frac", "ratio", float64(pruned)/float64(max(pruned+e.RFVars+e.WSVars, 1)), "")
		r.add("facts.fixed_edges", "count", per(c, float64(e.FixedHB+e.MHBFixedRF+e.MHBFixedFR)), "")
	}
	if c := &l.core; c.n > 0 {
		r.addTime("core.decider_setup_us", "us", c.meanUs(), "")
		r.add("core.interference_vars", "count", per(c, float64(l.interference)), "")
	}
	if c := &l.solve; c.n > 0 {
		tm := &l.timings
		r.addTime("solve.us", "us", c.meanUs(), "")
		r.add("solve.allocs", "count", per(c, float64(c.objs)), "")
		r.addTime("solve.bcp_us", "us", per(c, us(tm.BCP)), "")
		r.addTime("solve.theory_us", "us", per(c, us(tm.Theory)), "")
		r.addTime("solve.analyze_us", "us", per(c, us(tm.Analyze)), "")
		r.addTime("solve.reduce_us", "us", per(c, us(tm.Reduce)), "")
		r.addTime("solve.inprocess_us", "us", per(c, us(tm.Inprocess)), "")
		r.add("sat.decisions", "count", per(c, float64(l.sat.Decisions)), "")
		r.add("sat.conflicts", "count", per(c, float64(l.sat.Conflicts)), "")
		r.add("sat.propagations", "count", per(c, float64(l.sat.Propagations)), "")
		r.add("sat.restarts", "count", per(c, float64(l.sat.Restarts)), "")
		r.add("sat.learnt", "count", per(c, float64(l.sat.LearntClauses)), "")
		r.add("order.conflicts", "count", per(c, float64(l.order.Conflicts)), "")
		r.add("order.path_queries", "count", per(c, float64(l.order.PathQueries)), "")
		r.addTime("sat.props_per_s", "1/s", float64(l.sat.Propagations)/tm.BCP.Seconds(), "propagations / BCP time")
	}
	if c := &l.next; c.n > 0 {
		r.addTime("incremental.next_us", "us", c.meanUs(), "")
		r.addTime("incremental.encode_us", "us", per(c, us(l.incEncode)), "")
		r.addTime("incremental.solve_us", "us", per(c, us(l.incSolve)), "")
		r.add("incremental.clauses_final", "count", float64(l.clausesFinal)/float64(l.sweeps), "")
	}
	if used.totalCPU > 0 {
		r.add("runtime.gc_cpu_frac", "ratio", used.gcCPU/used.totalCPU, "")
	}
	if l.queries > 0 {
		untraced := float64(l.queries) / l.untraced.Seconds()
		traced := float64(l.queries) / l.traced.Seconds()
		r.check("bench.trace_overhead_frac=%.4f (untraced %.1f q/s, traced replay %.1f q/s)",
			(untraced-traced)/untraced, untraced, traced)
	}
}
