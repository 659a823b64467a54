package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"zpre/internal/obs"
	"zpre/internal/svcomp"
)

// TestMain lets the test binary serve as the probe child, which runs are
// started with by re-executing their own binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-probe" {
		os.Exit(probeMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

func queryIDs(qs []query) []string {
	ids := make([]string, len(qs))
	for i := range qs {
		ids[i] = qs[i].id()
	}
	return ids
}

// orderedIDs is the query list of one pass in the seed's order.
func orderedIDs(w *workload, seed int64) []string {
	qs := w.queries(svcomp.All())
	var ids []string
	for _, i := range passOrder(len(qs), seed, 0) {
		ids = append(ids, qs[i].id())
	}
	return ids
}

func TestSeedFixesQueryOrder(t *testing.T) {
	for _, w := range workloads {
		if w.queries == nil {
			continue
		}
		a, b, c := orderedIDs(w, 1), orderedIDs(w, 1), orderedIDs(w, 2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave different query lists", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", w.name)
		}
		slices.Sort(a)
		slices.Sort(c)
		if !slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave different query sets", w.name)
		}
	}
}

func TestSeedFixesJobStream(t *testing.T) {
	pairs := zpredPairs(svcomp.All())
	a, b, c := zpredStream(len(pairs), 300, 1), zpredStream(len(pairs), 300, 1), zpredStream(len(pairs), 300, 2)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different job streams")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 1 and 2 gave the same job stream")
	}
	distinct := func(js []zjob) []int {
		var ps []int
		for _, j := range js {
			if !j.repeat {
				ps = append(ps, j.pair)
			}
		}
		sort.Ints(ps)
		return ps
	}
	if !slices.Equal(distinct(a), distinct(c)) {
		t.Error("the distinct pairs of the stream depend on the seed")
	}
	repeats := len(a) - len(distinct(a))
	if repeats != 60 {
		t.Errorf("repeats = %d, want 60 (20%% of 300)", repeats)
	}
	seen := map[int]int{}
	for i, j := range a {
		if j.repeat {
			if first, ok := seen[j.pair]; !ok || i-first <= int(zpredRate) {
				t.Fatalf("job %d repeats pair %d without an original a second earlier", i, j.pair)
			}
		} else if _, ok := seen[j.pair]; !ok {
			seen[j.pair] = i
		}
	}
}

func TestWorkloadSizes(t *testing.T) {
	corpus := svcomp.All()
	want := map[string]int{"search-heavy": 72, "facts-rg": 663, "incremental": 48}
	for _, w := range workloads {
		if w.queries == nil {
			continue
		}
		n := len(w.queries(corpus))
		if exp, ok := want[w.name]; ok && n != exp {
			t.Errorf("%s: %d queries per pass, want %d", w.name, n, exp)
		}
		if n == 0 {
			t.Errorf("%s: no queries", w.name)
		}
	}
	if n := len(zpredPairs(corpus)); n != 615 {
		t.Errorf("zpred pairs = %d, want 615", n)
	}
	found := map[string]bool{}
	for _, b := range corpus {
		if _, ok := searchHeavyBounds[b.Name]; ok {
			if found[b.Name] {
				t.Errorf("search-heavy program %s is ambiguous", b.Name)
			}
			found[b.Name] = true
		}
	}
	if len(found) != len(searchHeavyBounds) {
		t.Errorf("found %d of %d search-heavy programs", len(found), len(searchHeavyBounds))
	}
}

func TestTailPerMille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1000, 990}, {22800, 990}, {999, 980}, {500, 980}, {300, 950},
		{200, 950}, {100, 900}, {72, 750}, {40, 750}, {20, 500}, {5, 500},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := 20; n < 3000; n++ {
		if p := tailPerMille(n); n-rank(n, p) < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond", n, p, n-rank(n, p))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareCalls(t *testing.T) {
	lat := specMetric{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 10.2}
	shift := func(d float64) []float64 {
		out := slices.Clone(parent)
		for i := range out {
			out[i] += d
		}
		return out
	}
	if got := compareMetric(lat, parent, shift(-1)).call; got != "gain" {
		t.Errorf("10%% faster: %s, want gain", got)
	}
	if got := compareMetric(lat, parent, shift(2)).call; got != "REGRESSION" {
		t.Errorf("20%% slower: %s, want REGRESSION", got)
	}
	if got := compareMetric(lat, parent, shift(0.5)).call; got != "worse" {
		t.Errorf("5%% slower in every pair: %s, want worse", got)
	}
	if got := compareMetric(lat, parent, shift(0.05)).call; got != "no change" {
		t.Errorf("within noise: %s, want no change", got)
	}
	count := specMetric{Name: "sat.decisions", Unit: "count", Better: "lower"}
	if got := compareMetric(count, []float64{5, 5}, []float64{5, 5}).call; got != "same" {
		t.Errorf("equal counts: %s, want same", got)
	}
	if got := compareMetric(count, []float64{5, 5}, []float64{5, 4}).call; got != "CHANGED" {
		t.Errorf("moved count: %s, want CHANGED", got)
	}
	if got := compareMetric(count, parent, shift(0.05)).call; got != "no change" {
		t.Errorf("sampled count within noise: %s, want no change", got)
	}
}

// TestSmokeEveryWorkload runs every workload at one tiny pass in both
// modes and checks the result line against BENCHMARK.json: the keys, every
// metric it names with its unit, and nothing else.
func TestSmokeEveryWorkload(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	specs := map[bool][]specMetric{false: s.EndToEnd, true: s.PerLayer}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 1, trace: trace, limit: 6}
			if trace {
				cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			}
			var out bytes.Buffer
			if code := emit(w, cfg, &out); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, trace, code, out.String())
			}
			line := lastLine(t, out.String())
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &raw); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.name, trace, err)
			}
			if keys := sortedKeys(raw); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s trace=%v: result keys %v", w.name, trace, keys)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var names []string
			for _, m := range specs[trace] {
				names = append(names, m.Name)
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case !strings.Contains(out.String(), "\n"+m.Name+" "):
					t.Errorf("%s trace=%v: %s missing from the table", w.name, trace, m.Name)
				}
			}
			slices.Sort(names)
			if keys := sortedKeys(res.Metrics); !slices.Equal(keys, names) {
				t.Errorf("%s trace=%v: result metrics %v, BENCHMARK.json lists %v", w.name, trace, keys, names)
			}
			if trace {
				if n, err := obs.ReadChromeFile(cfg.traceOut); err != nil || n == 0 {
					t.Errorf("%s: chrome trace: %d events, %v", w.name, n, err)
				}
			}
		}
	}
}

func lastLine(t *testing.T, s string) string {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		last = sc.Text()
	}
	if last == "" {
		t.Fatal("no output")
	}
	return last
}

func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
}
