package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// minPairs is the fewest parent/change run pairs compare accepts.
const minPairs = 10

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads the JSON lines -out appends, keyed by workload and mode
// ("corpus" or "corpus/trace"), in file order.
func loadRuns(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs[runKey(&r)] = append(runs[runKey(&r)], r)
	}
	return runs, sc.Err()
}

func runKey(r *report) string {
	if r.Trace {
		return r.Workload + "/trace"
	}
	return r.Workload
}

// verdictRow is compare's finding for one metric on one workload.
type verdictRow struct {
	metric         string
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	winRate        float64
	call           string
}

// compareMetric applies the acceptance rule to paired runs a[i], b[i] of
// the parent and the change. A gain needs a win rate of at least 0.9 and a
// median gap wider than the parent's interquartile range; a regression is
// a change median worse than the parent's by more than the bound. The
// mirror of a gain within the bound is called worse: the bound has to
// cover the noisiest workload, so on a steadier one a real slowdown can
// stay inside it. A count that repeats exactly over the parent's runs is
// compared exactly; allocation counts, which the runtime samples, do not
// repeat and are compared as measurements.
func compareMetric(m specMetric, a, b []float64) verdictRow {
	row := verdictRow{metric: m.Name, medA: median(a), medB: median(b)}
	row.q1A, row.q3A = quartiles(a)
	row.q1B, row.q3B = quartiles(b)
	if m.Unit == "count" && slices.Min(a) == slices.Max(a) {
		row.call = "same"
		if slices.Min(b) != a[0] || slices.Max(b) != a[0] {
			row.call = "CHANGED"
		}
		return row
	}
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	row.winRate = float64(wins) / float64(len(a))
	iqrA := row.q3A - row.q1A
	gap := math.Abs(row.medB - row.medA)
	worse := better(row.medA, row.medB)
	switch {
	case m.Bound > 0 && worse && gap > m.Bound*math.Abs(row.medA):
		row.call = "REGRESSION"
	case !worse && row.winRate >= 0.9 && gap > iqrA:
		row.call = "gain"
	case worse && row.winRate <= 0.1 && gap > iqrA:
		row.call = "worse"
	case m.Bound > 0 && iqrA > m.Bound*math.Abs(row.medA) && !allBetter(b, a, better):
		row.call = "unresolved"
	default:
		row.call = "no change"
	}
	return row
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareMain implements "compare PARENT CHANGE": it pairs the i-th run of
// each workload in the two files and reports every BENCHMARK.json metric
// per workload. It exits 1 when any metric regresses beyond its bound.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	s, err := findSpec()
	if err == nil {
		var regressed bool
		regressed, err = compareFiles(s, args[0], args[1], w)
		if err == nil && regressed {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	return 0
}

// findSpec loads BENCHMARK.json from the current directory, or from its
// parent when compare runs from the benchmark directory.
func findSpec() (*spec, error) {
	s, err := loadSpec("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return loadSpec("../BENCHMARK.json")
	}
	return s, err
}

func compareFiles(s *spec, pathA, pathB string, w io.Writer) (regressed bool, err error) {
	runsA, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	compared := 0
	for _, key := range sortedKeys(runsA) {
		a, b := runsA[key], runsB[key]
		n := min(len(a), len(b))
		if n == 0 {
			continue
		}
		if n < minPairs {
			return false, fmt.Errorf("%s: %d pairs, need at least %d", key, n, minPairs)
		}
		compared++
		metrics := s.EndToEnd
		if a[0].Trace {
			metrics = s.PerLayer
		}
		fmt.Fprintf(w, "== %s (%d pairs; parent %s, change %s)\n", key, n, a[0].Fingerprint.Commit, b[0].Fingerprint.Commit)
		fmt.Fprintf(w, "%-24s %12s %12s %12s   %12s %12s %12s  %5s  %s\n",
			"metric", "parent_q1", "parent_med", "parent_q3", "change_q1", "change_med", "change_q3", "wins", "call")
		for _, m := range metrics {
			va, vb, ok := values(a[:n], b[:n], m.Name)
			if !ok {
				fmt.Fprintf(w, "%-24s missing from some runs\n", m.Name)
				continue
			}
			row := compareMetric(m, va, vb)
			if row.call == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(w, "%-24s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g  %5.2f  %s\n",
				row.metric, row.q1A, row.medA, row.q3A, row.q1B, row.medB, row.q3B, row.winRate, row.call)
		}
		for i := 0; i < n; i++ {
			if !a[i].Correct || !b[i].Correct {
				fmt.Fprintf(w, "pair %d: a run reported wrong verdicts or replay drift\n", i+1)
				regressed = true
			}
		}
	}
	if compared == 0 {
		return false, errors.New("no workload has runs in both files")
	}
	return regressed, nil
}

func values(a, b []report, name string) (va, vb []float64, ok bool) {
	for i := range a {
		ma, okA := a[i].Metrics[name]
		mb, okB := b[i].Metrics[name]
		if !okA || !okB {
			return nil, nil, false
		}
		va = append(va, ma.Value)
		vb = append(vb, mb.Value)
	}
	return va, vb, true
}
