package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"zpre"
	"zpre/internal/incremental"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

type verdict int

const (
	vUnknown verdict = iota
	vSafe
	vUnsafe
)

func (v verdict) String() string {
	return [...]string{"unknown", "safe", "unsafe"}[v]
}

// answer is a query's verdict at one bound and the search work behind it.
type answer struct {
	v                    verdict
	decisions, conflicts uint64
}

func fromStatus(s sat.Status) verdict {
	switch s {
	case sat.Sat:
		return vUnsafe
	case sat.Unsat:
		return vSafe
	}
	return vUnknown
}

// truth is the ground truth for b under m at bound k: safe at any bound for
// ExpectSafe, unsafe from MinBound on for ExpectUnsafe, unknown otherwise.
func truth(b *svcomp.Benchmark, m memmodel.Model, k int) verdict {
	switch b.Expected[m] {
	case svcomp.ExpectSafe:
		return vSafe
	case svcomp.ExpectUnsafe:
		if k >= b.MinBound {
			return vUnsafe
		}
	}
	return vUnknown
}

// verify runs the query through the public entry point: zpre.Verify, or
// incremental.Run for a sweep. It returns one answer per bound solved.
func (q *query) verify() ([]answer, error) {
	if q.sweep {
		brs, err := incremental.Run(q.bench.Program, sweepOptions(q.opts), q.opts.Unroll)
		if err != nil {
			return nil, err
		}
		return sweepAnswers(brs), nil
	}
	rep, err := zpre.Verify(q.bench.Program, q.opts)
	if err != nil {
		return nil, err
	}
	return []answer{{fromStatus(rep.Status), rep.SolverStats.Decisions, rep.SolverStats.Conflicts}}, nil
}

func sweepOptions(o zpre.Options) incremental.Options {
	return incremental.Options{
		Model:    o.Model,
		Strategy: o.Strategy,
		Width:    o.Width,
		Timeout:  o.Timeout,
		Seed:     o.Seed,
	}
}

func sweepAnswers(brs []incremental.BoundResult) []answer {
	out := make([]answer, len(brs))
	for i, br := range brs {
		out[i] = answer{fromStatus(br.Status), br.Stats.Decisions, br.Stats.Conflicts}
	}
	return out
}

// tally counts attempts, failures and verdict checks.
type tally struct {
	attempted, failed    int
	checked, unchecked   int
	wrong, errors, drift int
	unknown              int
	firstWrong, firstErr string
	firstDrift           string
}

// add records one query's answers; a query fails on an error, an unknown
// verdict at any bound, or a wrong verdict.
func (t *tally) add(q *query, ans []answer, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errors++
		if t.firstErr == "" {
			t.firstErr = fmt.Sprintf("%s: %v", q.id(), err)
		}
		return
	}
	failed := false
	for i, a := range ans {
		k := q.opts.Unroll
		if q.sweep {
			k = i + 1
		}
		failed = t.verdict(q.bench, q.opts.Model, k, a.v, q.id()) || failed
	}
	if failed {
		t.failed++
	}
}

// verdict checks one verdict and reports whether it counts as a failure.
func (t *tally) verdict(b *svcomp.Benchmark, m memmodel.Model, k int, v verdict, id string) bool {
	if v == vUnknown {
		t.unknown++
		return true
	}
	want := truth(b, m, k)
	switch {
	case want == vUnknown:
		t.unchecked++
	case want != v:
		t.wrong++
		if t.firstWrong == "" {
			t.firstWrong = fmt.Sprintf("%s at k=%d: got %v, want %v", id, k, v, want)
		}
		return true
	default:
		t.checked++
	}
	return false
}

// compare records replay drift: the layer-by-layer replay must reproduce
// the public entry point's verdicts and search work exactly.
func (t *tally) compare(q *query, ref, got []answer, err error) {
	if err == nil && slices.Equal(ref, got) {
		return
	}
	t.drift++
	if t.firstDrift == "" {
		t.firstDrift = fmt.Sprintf("%s: entry point %v, replay %v (err %v)", q.id(), ref, got, err)
	}
}

func (t *tally) report(r *report) {
	r.Attempted = t.attempted
	r.Failed = t.failed
	r.Correct = t.wrong == 0 && t.drift == 0
	r.add("failed_frac", "ratio", float64(t.failed)/float64(max(t.attempted, 1)), "")
	r.check("verdicts_checked=%d verdicts_unchecked=%d wrong=%d unknown=%d errors=%d",
		t.checked, t.unchecked, t.wrong, t.unknown, t.errors)
	if r.Trace {
		r.check("replay_drift=%d", t.drift)
	}
	for _, s := range []string{t.firstWrong, t.firstErr, t.firstDrift} {
		if s != "" {
			r.check("first failure: %s", s)
		}
	}
}

// A run sets up at least setupMin times, and more while its set-ups so far
// took less than setupBudget, up to setupMax; setup_s is their median.
const (
	setupMin    = 5
	setupMax    = 25
	setupBudget = time.Second
)

// setupTimes are a run's set-up durations in seconds and the host's speed
// measured between them, which scales their median.
type setupTimes struct {
	secs  []float64
	speed float64
}

// repeatSetup runs the set-up f repeatedly. The first is timed from process
// start, as it also pays for process and runtime start-up. After each, the
// probe takes one slice per probeEvery the set-up took, as a closed loop
// does between queries; before each later one the heap is collected, so no
// set-up pays for the garbage of the one before. Neither is timed.
func repeatSetup(p *speedProbe, f func() error) (setupTimes, error) {
	var st setupTimes
	var total time.Duration
	for len(st.secs) < setupMin || len(st.secs) < setupMax && total < setupBudget {
		if len(st.secs) > 0 {
			runtime.GC()
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		p.sample(max(1, int(d/probeEvery)), probeSlice)
		if len(st.secs) == 0 {
			d = t0.Add(d).Sub(processStart)
		}
		total += d
		st.secs = append(st.secs, d.Seconds())
	}
	st.speed = p.take()
	return st, p.err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *report) addSetup(st setupTimes) {
	r.Fingerprint.SetupHostSpeed = st.speed
	raw := median(st.secs)
	r.add("setup_s", "s", raw*st.speed, fmt.Sprintf("median of %d", len(st.secs)))
	r.setRaw("setup_s", raw)
}

// endToEnd adds the end-to-end metrics of a timed phase from its
// per-query latencies in milliseconds and what the phase used. An open
// loop's throughput is bounded by its offered rate, not the host's speed,
// so it is not scaled.
func (r *report) endToEnd(setup setupTimes, lat []float64, used usage, p *speedProbe, open bool) {
	n := float64(max(len(lat), 1))
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	tail := tailPerMille(len(sorted))
	r.addSetup(setup)
	r.addTime("latency_p50_ms", "ms", percentile(sorted, 500), fmt.Sprintf("n=%d", len(sorted)))
	r.addTime("latency_tail_ms", "ms", percentile(sorted, tail), fmt.Sprintf("p%g, n=%d", float64(tail)/10, len(sorted)))
	if qps := float64(len(lat)) / used.wall.Seconds(); open {
		r.add("throughput_qps", "1/s", qps, "completed jobs; not scaled")
	} else {
		r.addTime("throughput_qps", "1/s", qps, "")
	}
	r.addTime("cpu_ms_per_query", "ms", ms(used.cpu)/n, "")
	r.add("alloc_kb_per_query", "KiB", float64(used.allocBytes)/1024/n, "")
	r.add("rss_mb", "MiB", median(p.rss), fmt.Sprintf("median of %d samples", len(p.rss)))
	r.add("peak_rss_mb", "MiB", peakRSSMiB(), "")
}

// runClosed measures a closed-loop workload end to end: one client runs
// every query of the list once per pass, each pass in seeded order.
func runClosed(w *workload, cfg config) (*report, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var qs []query
	setup, err := repeatSetup(probe, func() error {
		qs = strided(w.queries(svcomp.All()), cfg.limit)
		for _, i := range warmup(len(qs)) {
			if _, err := qs[i].verify(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	passes := w.passes(cfg.seconds)
	lat := make([]float64, 0, passes*len(qs))
	var t tally
	probe.begin()
	ph := beginPhase(probe)
	for p := 0; p < passes; p++ {
		for _, i := range passOrder(len(qs), cfg.seed, p) {
			q := &qs[i]
			t0 := time.Now()
			ans, err := q.verify()
			lat = append(lat, ms(time.Since(t0)))
			t.add(q, ans, err)
			probe.tick()
		}
	}
	used := ph.used(probe, false)
	speed, err := probe.end()
	if err != nil {
		return nil, err
	}
	r := newReport(w, cfg, speed)
	r.Fingerprint.Passes = passes
	r.endToEnd(setup, lat, used, probe, false)
	t.report(r)
	return r, nil
}

// runClosedTraced is the traced run: each query goes through its public
// entry point (untraced, the reference) and then through the layer replay,
// which must reproduce the reference's verdicts and work exactly. It makes
// half the passes of the untraced run, as each query runs twice.
func runClosedTraced(w *workload, cfg config) (*report, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	var qs []query
	setup, err := repeatSetup(probe, func() error {
		qs = strided(w.queries(svcomp.All()), cfg.limit)
		warm := newLayers()
		for _, i := range warmup(len(qs)) {
			if _, err := warm.reference(&qs[i]); err != nil {
				return err
			}
			if _, err := warm.replay(&qs[i], nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	passes := max(1, w.passes(cfg.seconds)/2)
	l := newLayers()
	var t tally
	var traces []*obs.Trace
	probe.begin()
	ph := beginPhase(probe)
	for p := 0; p < passes; p++ {
		var tr *obs.Trace
		if p == 0 && cfg.traceOut != "" {
			tr = obs.NewTrace(w.name + "/pass1")
			traces = append(traces, tr)
		}
		for _, i := range passOrder(len(qs), cfg.seed, p) {
			l.traceQuery(&qs[i], tr, &t)
			probe.tick()
		}
	}
	used := ph.used(probe, false)
	speed, err := probe.end()
	if err != nil {
		return nil, err
	}
	r := newReport(w, cfg, speed)
	r.Fingerprint.Passes = passes
	r.addSetup(setup)
	l.report(r, used)
	t.report(r)
	if cfg.traceOut != "" {
		if err := obs.WriteChromeFile(cfg.traceOut, traces); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		r.check("chrome_trace=%s", cfg.traceOut)
	}
	return r, nil
}

// traceQuery runs one query through its entry point and then the layer
// replay, records both in t, and times both for the tracing overhead.
func (l *layers) traceQuery(q *query, tr *obs.Trace, t *tally) {
	t0 := time.Now()
	ref, err := l.reference(q)
	l.untraced += time.Since(t0)
	t.add(q, ref, err)
	if err != nil {
		return
	}
	id := tr.Start(q.id())
	t1 := time.Now()
	got, rerr := l.replay(q, tr)
	l.traced += time.Since(t1)
	tr.End(id)
	l.queries++
	t.compare(q, ref, got, rerr)
}
