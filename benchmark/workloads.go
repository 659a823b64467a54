package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"zpre"
	"zpre/internal/core"
	"zpre/internal/memmodel"
	"zpre/internal/server"
	"zpre/internal/svcomp"
)

// Query semantics shared by every workload.
const (
	// decisionSeed is Options.Seed inside every query, so search work is
	// identical from run to run; the workload seed only reorders queries.
	decisionSeed = 1
	// queryTimeout bounds one query (a fresh verify, a whole sweep's bounds
	// each, or a zpred job end to end).
	queryTimeout = 30 * time.Second
	// warmupStride picks every 20th query of the canonical list, 5 % of a
	// pass, as the untimed warm-up.
	warmupStride = 20
	// zpredRate is the open loop's offered rate in jobs per second.
	zpredRate = 20.0
	// zpredRepeatFrac of the job stream repeats an earlier job, so it can be
	// served from the verdict memo.
	zpredRepeatFrac = 0.2
)

// workload is one benchmark input set. Closed-loop workloads run a fixed
// query list pass after pass from one goroutine; zpred-portfolio is the
// open-loop job stream.
type workload struct {
	name string
	why  string
	// passSec is the length of one timed pass on the reference machine
	// (2-core Xeon, GOMAXPROCS=2). A run makes
	// round(seconds × workShare / passSec) passes, so its amount of work
	// depends on -seconds alone and is the same on every commit.
	passSec float64
	// queries builds the canonical query list (nil for the open loop).
	queries func(corpus []svcomp.Benchmark) []query
}

var workloads = []*workload{
	{
		name:    "corpus",
		why:     "the median query of the evaluate sweep; encode dominates, so encoder and unroll changes show",
		passSec: 1.0,
		queries: corpusQueries,
	},
	{
		name:    "search-heavy",
		why:     "solve dominates (BCP, theory, analyze): the ZPRE-vs-VSIDS search effect of the paper",
		passSec: 1.3,
		queries: searchHeavyQueries,
	},
	{
		name:    "facts-rg",
		why:     "the rg/MHB/dataflow/prune pre-analysis stack that corpus bypasses; rg.Prove dominates",
		passSec: 12.5,
		queries: factsQueries,
	},
	{
		name:    "incremental",
		why:     "incremental.Run sweeps: delta encoding under activation literals with learnt clauses kept",
		passSec: 0.55,
		queries: incrementalQueries,
	},
	{
		name: "zpred-portfolio",
		why:  "the only concurrent open-loop path: zpred jobs racing four portfolio configs at 20 jobs/s",
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// workShare is the share of a closed-loop run spent on queries; the rest
// is probe samples, one probeSlice after every probeEvery of queries.
const workShare = float64(probeEvery) / float64(probeEvery+probeSlice)

// minPasses keeps a run from resting on one order of its queries: in a
// single pass, the seed's order alone moved the median of facts-rg by up
// to a tenth.
const minPasses = 2

// passes is the number of timed passes a run of the given length makes.
func (w *workload) passes(seconds int) int {
	return max(minPasses, int(math.Round(float64(seconds)*workShare/w.passSec)))
}

// query is one (program, model, bound, strategy, options) asked of the
// verifier. opts.Unroll is the bound; a sweep query runs incremental.Run
// over bounds 1..opts.Unroll.
type query struct {
	bench *svcomp.Benchmark
	opts  zpre.Options
	sweep bool
	// member names the zpred portfolio config a replayed racer stands for.
	member string
}

func (q *query) id() string {
	id := fmt.Sprintf("%s/%s@%s/k%d/%s", q.bench.Subcategory, q.bench.Name, q.opts.Model, q.opts.Unroll, q.opts.Strategy)
	if q.member != "" {
		id += "/" + q.member
	}
	return id
}

var paperStrategies = []core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE}

// searchHeavyBounds names the search-bound programs and the bound each runs
// at; corpus leaves them out.
var searchHeavyBounds = map[string]int{
	"incr_lock_safe_4":   1,
	"incr_lock_safe_5":   1,
	"incr_lock_safe_6":   1,
	"parsum_lock_safe_4": 1,
	"parsum_lock_safe_5": 1,
	"long_cs_safe_3":     1,
	"fib_bench_safe_2":   3,
	"fib_bench_unsafe_2": 3,
}

// bounds is {1, 2} for looped programs and {1} for loop-free ones, whose
// higher bounds encode the identical instance.
func bounds(b *svcomp.Benchmark) []int {
	if b.Program.HasLoops() {
		return []int{1, 2}
	}
	return []int{1}
}

func freshQuery(b *svcomp.Benchmark, m memmodel.Model, k int, s core.Strategy, width int) query {
	return query{bench: b, opts: zpre.Options{
		Model:    m,
		Strategy: s,
		Unroll:   k,
		Width:    width,
		Seed:     decisionSeed,
		Timeout:  queryTimeout,
	}}
}

func corpusQueries(corpus []svcomp.Benchmark) []query {
	var qs []query
	for i := range corpus {
		b := &corpus[i]
		if _, heavy := searchHeavyBounds[b.Name]; heavy {
			continue
		}
		for _, m := range memmodel.All() {
			for _, k := range bounds(b) {
				for _, s := range paperStrategies {
					qs = append(qs, freshQuery(b, m, k, s, 8))
				}
			}
		}
	}
	return qs
}

func searchHeavyQueries(corpus []svcomp.Benchmark) []query {
	var qs []query
	for i := range corpus {
		b := &corpus[i]
		k, heavy := searchHeavyBounds[b.Name]
		if !heavy {
			continue
		}
		for _, m := range memmodel.All() {
			for _, s := range paperStrategies {
				qs = append(qs, freshQuery(b, m, k, s, 16))
			}
		}
	}
	return qs
}

func factsQueries(corpus []svcomp.Benchmark) []query {
	var qs []query
	for i := range corpus {
		b := &corpus[i]
		for _, m := range memmodel.All() {
			for _, k := range bounds(b) {
				q := freshQuery(b, m, k, core.ZPRE, 8)
				q.opts.RG = true
				q.opts.RGDomain = "dbm"
				q.opts.RGPrefilter = true
				q.opts.MHB = true
				q.opts.Dataflow = true
				q.opts.StaticPrune = true
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// sweepBound is the deepest bound of an incremental sweep.
const sweepBound = 8

func incrementalQueries(corpus []svcomp.Benchmark) []query {
	var qs []query
	for i := range corpus {
		b := &corpus[i]
		if !b.Program.HasLoops() {
			continue
		}
		for _, m := range memmodel.All() {
			q := freshQuery(b, m, sweepBound, core.ZPRE, 8)
			q.sweep = true
			qs = append(qs, q)
		}
	}
	return qs
}

// pair is one (program, model) a zpred job verifies at bound 1.
type pair struct {
	bench *svcomp.Benchmark
	model memmodel.Model
}

func zpredPairs(corpus []svcomp.Benchmark) []pair {
	var ps []pair
	for i := range corpus {
		for _, m := range memmodel.All() {
			ps = append(ps, pair{&corpus[i], m})
		}
	}
	return ps
}

// racerQueries are the zpre.Verify calls one zpred portfolio job races, one
// per member of server.PortfolioConfigs.
func racerQueries(p pair) []query {
	var qs []query
	for _, c := range server.PortfolioConfigs() {
		q := freshQuery(p.bench, p.model, 1, c.Strategy, 8)
		q.opts.Seed = c.Seed
		q.opts.StaticPrune = c.Prune
		q.opts.Dataflow = c.Dataflow
		q.opts.MHB = c.MHB
		q.opts.RG = c.RG
		q.opts.RGDomain = c.RGDomain
		q.member = c.Label
		qs = append(qs, q)
	}
	return qs
}

// stride picks n of total indices spread evenly over [0, total), the same
// ones for every seed.
func stride(total, n int) []int {
	n = min(n, total)
	out := make([]int, n)
	for j := range out {
		out[j] = j * total / n
	}
	return out
}

// strided returns n elements spread evenly over xs, or all of xs when n is
// 0 or not smaller than len(xs).
func strided[T any](xs []T, n int) []T {
	if n <= 0 || n >= len(xs) {
		return xs
	}
	out := make([]T, 0, n)
	for _, i := range stride(len(xs), n) {
		out = append(out, xs[i])
	}
	return out
}

// warmup is the fixed 5 % slice of the canonical list run before timing.
func warmup(n int) []int {
	return stride(n, (n+warmupStride-1)/warmupStride)
}

// passOrder is the seeded order of one pass over n queries.
func passOrder(n int, seed int64, pass int) []int {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	return r.Perm(n)
}

// zjob is one job of the open-loop stream: the pair it verifies and
// whether it repeats an earlier job of the stream.
type zjob struct {
	pair   int
	repeat bool
}

// zpredStream draws n jobs over the pairs. The distinct pairs are a fixed
// spread of the corpus in a fixed order, the same for every seed: the tail
// is set by which slow jobs overlap, and with a seeded order its spread
// over seeds was 0.13 against 0.08. The seed places the repeats, each of
// which re-submits a job at least a second of the schedule earlier, so its
// verdict is usually memoised by then.
func zpredStream(pairs, n int, seed int64) []zjob {
	repeats := int(math.Round(float64(n) * zpredRepeatFrac))
	distinct := stride(pairs, n-repeats)
	fixed := rand.New(rand.NewSource(0))
	fixed.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	r := rand.New(rand.NewSource(seed))
	gap := min(int(zpredRate), n/4)
	isRepeat := make([]bool, n)
	for _, s := range r.Perm(n - gap - 1)[:repeats] {
		isRepeat[gap+1+s] = true
	}
	jobs := make([]zjob, n)
	next := 0
	for i := range jobs {
		if !isRepeat[i] {
			// A stream longer than the corpus cycles through it again.
			jobs[i] = zjob{pair: distinct[next%len(distinct)]}
			next++
			continue
		}
		jobs[i] = zjob{pair: jobs[r.Intn(i-gap)].pair, repeat: true}
	}
	return jobs
}
