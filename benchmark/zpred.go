package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zpre/internal/cprog"
	"zpre/internal/obs"
	"zpre/internal/server"
	"zpre/internal/svcomp"
)

const (
	// pollEvery is the poller's sweep interval over outstanding jobs.
	pollEvery = time.Millisecond
	// drainLimit is how long after the last job is due the poller waits
	// for stragglers before counting them failed.
	drainLimit = 60 * time.Second
	// lateLimit is the generator lateness (p99) above which an open-loop
	// run is flagged invalid.
	lateLimit = 5 * time.Millisecond
	// replayPairsPerSec sizes the traced run's replay of portfolio racers:
	// that many (program, model) pairs per second of -seconds, four racers
	// each, is about half of the run on the reference machine.
	replayPairsPerSec = 10.0
	// idleSlice is the open loop's probe slice. The poller takes one while
	// no job is in flight and the next is due in more than idleSlice plus
	// idleMargin, so the probe never runs beside a job.
	idleSlice  = 30 * time.Millisecond
	idleMargin = 5 * time.Millisecond
)

// zpredSetup builds the job stream's inputs and a started server. The
// warm-up jobs run on a throwaway server first, so the timed server's
// verdict memo starts empty.
type zpredSetup struct {
	pairs []pair
	specs [][]byte // POST /jobs body per pair
	srv   *server.Server
	h     http.Handler
}

func newZpredSetup(cfg config) (*zpredSetup, error) {
	z := &zpredSetup{pairs: strided(zpredPairs(svcomp.All()), cfg.limit)}
	src := map[*svcomp.Benchmark]string{}
	for _, p := range z.pairs {
		if _, ok := src[p.bench]; !ok {
			src[p.bench] = cprog.Format(p.bench.Program)
		}
		body, err := json.Marshal(server.JobSpec{
			Name:   p.bench.Program.Name + "@" + p.model.String(),
			Source: src[p.bench],
			Model:  p.model.String(),
			Unroll: 1,
			Width:  8,
			Mode:   "portfolio",
		})
		if err != nil {
			return nil, err
		}
		z.specs = append(z.specs, body)
	}
	warm, h, err := startServer()
	if err != nil {
		return nil, err
	}
	for _, i := range warmup(len(z.pairs)) {
		id, status, _ := submit(h, z.specs[i])
		for status == http.StatusAccepted {
			if _, done := poll(h, id); done {
				break
			}
			time.Sleep(pollEvery)
		}
	}
	if err := warm.Close(); err != nil {
		return nil, err
	}
	z.srv, z.h, err = startServer()
	return z, err
}

// startServer starts an in-process zpred: default pool, no journal,
// memory-only verdict memo, and the benchmark's per-query timeout.
func startServer() (*server.Server, http.Handler, error) {
	s, err := server.New(server.Config{JobTimeout: queryTimeout})
	if err != nil {
		return nil, nil, err
	}
	s.Start()
	return s, s.Handler(), nil
}

// setupZpred runs the set-up repeatedly, keeping the last.
func setupZpred(cfg config, p *speedProbe) (*zpredSetup, setupTimes, error) {
	var z *zpredSetup
	st, err := repeatSetup(p, func() error {
		if z != nil {
			z.srv.Close()
		}
		var err error
		z, err = newZpredSetup(cfg)
		return err
	})
	return z, st, err
}

func submit(h http.Handler, body []byte) (id string, status int, dur time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	dur = time.Since(t0)
	if rec.Code != http.StatusAccepted {
		return "", rec.Code, dur
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		return "", http.StatusInternalServerError, dur
	}
	return job.ID, rec.Code, dur
}

func poll(h http.Handler, id string) (*server.JobResult, bool) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
	var job struct {
		State  string            `json:"state"`
		Result *server.JobResult `json:"result"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &job) != nil {
		return nil, false
	}
	return job.Result, job.State == server.StateDone && job.Result != nil
}

// jobRecord is one open-loop job as the client saw it.
type jobRecord struct {
	late, submit time.Duration // generator lateness, POST handler time
	status       int
	done         bool
	lat          time.Duration // due time to the first poll showing done
	res          server.JobResult
}

// openLoop offers the jobs at zpredRate from one generator goroutine while
// this goroutine polls outstanding jobs, samples the resident set, and
// takes a probe slice whenever the service is idle long enough. It returns
// per-job records.
func openLoop(h http.Handler, jobs []zjob, specs [][]byte, probe *speedProbe) []jobRecord {
	type pending struct {
		i   int
		id  string
		due time.Time
	}
	recs := make([]jobRecord, len(jobs))
	accepted := make(chan pending, len(jobs)) // one send per job at most
	start := time.Now()
	dueAt := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / zpredRate * float64(time.Second)))
	}
	var nextDue atomic.Int64 // the generator's next due time, Unix nanoseconds
	nextDue.Store(start.UnixNano())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(accepted)
		for i, j := range jobs {
			due := dueAt(i)
			nextDue.Store(due.UnixNano())
			time.Sleep(time.Until(due))
			recs[i].late = time.Since(due)
			id, status, dur := submit(h, specs[j.pair])
			recs[i].submit, recs[i].status = dur, status
			if status == http.StatusAccepted {
				accepted <- pending{i, id, due}
			}
		}
	}()
	lastDue := dueAt(len(jobs))
	var open []pending
	for genDone := false; ; {
		probe.tickRSS()
		for drained := false; !drained && !genDone; {
			select {
			case p, ok := <-accepted:
				if !ok {
					genDone = true
				} else {
					open = append(open, p)
				}
			default:
				drained = true
			}
		}
		open = slices.DeleteFunc(open, func(p pending) bool {
			res, done := poll(h, p.id)
			if done {
				recs[p.i].done, recs[p.i].lat, recs[p.i].res = true, time.Since(p.due), *res
			}
			return done
		})
		if genDone && len(open) == 0 || time.Now().After(lastDue.Add(drainLimit)) {
			break
		}
		idle := len(open) == 0 && !genDone && time.Until(time.Unix(0, nextDue.Load())) > idleSlice+idleMargin
		if idle && time.Now().After(probe.nextProbe) {
			probe.sample(1, idleSlice)
			continue
		}
		time.Sleep(pollEvery)
	}
	wg.Wait()
	return recs
}

// zpredJobs is the open-loop stream length: zpredRate jobs per second of
// the run (half in the traced run, which also replays racers).
func zpredJobs(cfg config) int {
	n := int(math.Round(zpredRate * float64(cfg.seconds)))
	if cfg.trace {
		n /= 2
	}
	if cfg.limit > 0 {
		n = min(n, cfg.limit)
	}
	return max(n, 1)
}

// checkJobs tallies the open loop's outcomes: a rejected, unfinished,
// unknown or wrong job fails.
func checkJobs(z *zpredSetup, jobs []zjob, recs []jobRecord, t *tally) {
	for i, rec := range recs {
		t.attempted++
		p := z.pairs[jobs[i].pair]
		switch {
		case rec.status != http.StatusAccepted || !rec.done:
			t.failed++
			t.errors++
			if t.firstErr == "" {
				t.firstErr = fmt.Sprintf("job %d (%s@%s): status %d, done %v", i, p.bench.Program.Name, p.model, rec.status, rec.done)
			}
		default:
			v := map[string]verdict{"true": vSafe, "false": vUnsafe}[rec.res.Verdict]
			id := fmt.Sprintf("job %d (%s@%s)", i, p.bench.Program.Name, p.model)
			if t.verdict(p.bench, p.model, rec.res.Bound, v, id) {
				t.failed++
			}
		}
	}
}

// lateness reports the generator's p99 lateness as a validity check.
func lateness(r *report, recs []jobRecord) {
	late := make([]float64, len(recs))
	for i, rec := range recs {
		late[i] = ms(rec.late)
	}
	slices.Sort(late)
	p99 := percentile(late, 990)
	valid := "valid"
	if p99 > ms(lateLimit) {
		valid = "INVALID: generator ran late, so latencies include client delay"
	}
	r.check("bench.gen_late_ms=%.3f (p99; %s)", p99, valid)
}

// runZpred measures the open loop end to end.
func runZpred(w *workload, cfg config) (*report, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	z, setup, err := setupZpred(cfg, probe)
	if err != nil {
		return nil, err
	}
	defer z.srv.Close()
	jobs := zpredStream(len(z.pairs), zpredJobs(cfg), cfg.seed)
	probe.begin()
	ph := beginPhase(probe)
	recs := openLoop(z.h, jobs, z.specs, probe)
	used := ph.used(probe, true)
	speed, err := probe.end()
	if err != nil {
		return nil, err
	}
	var lat []float64
	for _, rec := range recs {
		if rec.done {
			lat = append(lat, ms(rec.lat))
		}
	}
	r := newReport(w, cfg, speed)
	r.Fingerprint.Rate = zpredRate
	r.endToEnd(setup, lat, used, probe, true)
	var t tally
	checkJobs(z, jobs, recs, &t)
	t.report(r)
	lateness(r, recs)
	return r, nil
}

// runZpredTraced runs half the open loop for the service's own metrics,
// then replays the portfolio racers of a fixed spread of pairs layer by
// layer against zpre.Verify with the same options.
func runZpredTraced(w *workload, cfg config) (*report, error) {
	probe, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	z, setup, err := setupZpred(cfg, probe)
	if err != nil {
		return nil, err
	}
	defer z.srv.Close()
	jobs := zpredStream(len(z.pairs), zpredJobs(cfg), cfg.seed)
	probe.begin()
	ph := beginPhase(probe)
	recs := openLoop(z.h, jobs, z.specs, probe)

	nPairs := max(1, int(math.Round(replayPairsPerSec*float64(cfg.seconds))))
	if cfg.limit > 0 {
		nPairs = min(nPairs, max(1, cfg.limit/4))
	}
	var qs []query
	for _, p := range strided(z.pairs, nPairs) {
		qs = append(qs, racerQueries(p)...)
	}
	l := newLayers()
	var t tally
	var tr *obs.Trace
	if cfg.traceOut != "" {
		tr = obs.NewTrace(w.name + "/racers")
	}
	for _, i := range passOrder(len(qs), cfg.seed, 0) {
		l.traceQuery(&qs[i], tr, &t)
		probe.tick()
	}
	used := ph.used(probe, false)
	speed, err := probe.end()
	if err != nil {
		return nil, err
	}

	r := newReport(w, cfg, speed)
	r.Fingerprint.Rate = zpredRate
	r.addSetup(setup)
	serverMetrics(r, recs)
	l.report(r, used)
	checkJobs(z, jobs, recs, &t)
	t.report(r)
	r.check("attempted: %d jobs and %d replayed racers", len(jobs), len(qs))
	lateness(r, recs)
	if cfg.traceOut != "" {
		if err := obs.WriteChromeFile(cfg.traceOut, []*obs.Trace{tr}); err != nil {
			return nil, fmt.Errorf("chrome trace: %w", err)
		}
		r.check("chrome_trace=%s", cfg.traceOut)
	}
	return r, nil
}

// serverMetrics adds the service's per-layer metrics from the job records.
func serverMetrics(r *report, recs []jobRecord) {
	var submitDur time.Duration
	var done, rejected, cached, degraded, solved, attempts int
	var winnerFrac float64
	for _, rec := range recs {
		submitDur += rec.submit
		if rec.status != http.StatusAccepted {
			rejected++
		}
		if !rec.done {
			continue
		}
		done++
		res := &rec.res
		if res.Degraded {
			degraded++
		}
		if res.Cached {
			cached++
			continue
		}
		solved++
		attempts += res.Attempts
		winnerFrac += res.SolveSec / rec.lat.Seconds()
	}
	n := float64(len(recs))
	r.addTime("server.submit_us", "us", us(submitDur)/n, "")
	r.add("server.cache_hit_frac", "ratio", float64(cached)/float64(max(done, 1)), "")
	r.add("server.rejected_frac", "ratio", float64(rejected)/n, "")
	r.add("server.degraded_frac", "ratio", float64(degraded)/float64(max(done, 1)), "")
	r.add("server.attempts_per_job", "count", float64(attempts)/float64(max(solved, 1)), "uncached jobs")
	r.add("server.winner_solve_frac", "ratio", winnerFrac/float64(max(solved, 1)), "winner solve_sec / job latency")
}
