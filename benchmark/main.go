// Command benchmark is the repository's end-to-end benchmark. It drives the
// verifier only through public entry points (zpre.Verify, incremental.Run
// and the in-process zpred HTTP handler), checks every verdict against the
// corpus ground truth, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the benchmark directory:
//
//	go run . -workload corpus|search-heavy|facts-rg|incremental|zpred-portfolio|all
//	         [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-out FILE]
//	go run . compare PARENT.jsonl CHANGE.jsonl
//
// With -trace 0 the run measures end-to-end metrics with no tracing. With
// -trace 1 it replays the same queries one layer at a time (rg.Prove,
// cprog.Unroll, encode, core.Classify+NewDecider, smt solve), wraps each
// call in an internal/obs span, and prints per-layer metrics; -trace-out
// writes the first pass's spans as a Chrome trace. -out appends the full
// result, fingerprint included, as one JSON line for compare. A run starts
// the command again as "-probe", its host-speed probe (see probe.go).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	out      string
	// limit caps the queries per pass (jobs, for the open loop) so tests
	// can run every workload in seconds; 0 runs the full workload.
	limit int
}

// metric is one measured value. The JSON result line carries only the
// metrics named in resultMetrics; the table and -out carry all of them.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is a time's measured value before scaling to the reference host
	// speed (zero for metrics that are not scaled).
	Raw  float64 `json:"raw,omitempty"`
	Note string  `json:"note,omitempty"`
}

// resultMetrics are the metrics of the JSON result line, which
// BENCHMARK.json lists as end_to_end (trace 0) and per_layer (trace 1).
var resultMetrics = map[bool][]string{
	false: {
		"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_qps",
		"cpu_ms_per_query", "alloc_kb_per_query", "rss_mb",
	},
	true: {
		"encode.us", "encode.allocs", "encode.alloc_kb", "encode.clauses",
		"encode.vars", "encode.rf_vars", "encode.ws_vars", "encode.events",
		"core.decider_setup_us", "core.interference_vars",
		"solve.us", "solve.allocs", "solve.bcp_us", "solve.theory_us", "solve.analyze_us",
		"solve.inprocess_us", "sat.decisions", "sat.conflicts", "sat.propagations",
		"sat.learnt", "order.conflicts", "order.path_queries", "sat.props_per_s",
		"runtime.gc_cpu_frac",
	},
}

// report is one workload run's outcome.
type report struct {
	Workload    string            `json:"workload"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Checks      []string          `json:"checks"`
	Fingerprint fingerprint       `json:"fingerprint"`
	order       []string
}

// newReport starts a run's report; speed is the host's speed over the
// timed phase, which scales its times.
func newReport(w *workload, cfg config, speed float64) *report {
	r := &report{
		Workload:    w.name,
		Trace:       cfg.trace,
		Metrics:     map[string]metric{},
		Fingerprint: newFingerprint(cfg),
	}
	r.Fingerprint.HostSpeed = speed
	return r
}

func (r *report) add(name, unit string, v float64, note string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Name: name, Value: v, Unit: unit, Note: note}
}

// addTime adds a time (unit s, ms or us) or a rate (unit 1/s) measured on
// the host, scaled to the reference host speed.
func (r *report) addTime(name, unit string, raw float64, note string) {
	v := raw * r.Fingerprint.HostSpeed
	if unit == "1/s" {
		v = raw / r.Fingerprint.HostSpeed
	}
	r.add(name, unit, v, note)
	r.setRaw(name, raw)
}

// setRaw records a scaled metric's measured value.
func (r *report) setRaw(name string, raw float64) {
	m := r.Metrics[name]
	m.Raw = raw
	r.Metrics[name] = m
}

func (r *report) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) resultLine() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, name := range resultMetrics[r.Trace] {
		if m, ok := r.Metrics[name]; ok {
			out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

func (r *report) print(w io.Writer) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "# workload=%s trace=%v commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d seconds=%d passes=%d offered_rate=%g host_speed=%.4f setup_host_speed=%.4f\n",
		r.Workload, r.Trace, fp.Commit, fp.Go, fp.GOMAXPROCS, fp.NProc, fp.CPU, fp.Seed, fp.Seconds, fp.Passes, fp.Rate, fp.HostSpeed, fp.SetupHostSpeed)
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-26s %14.4f %-6s", name, m.Value, m.Unit)
		var notes []string
		if m.Raw != 0 {
			notes = append(notes, fmt.Sprintf("raw %.4f", m.Raw))
		}
		if m.Note != "" {
			notes = append(notes, m.Note)
		}
		if len(notes) > 0 {
			line += "  (" + strings.Join(notes, "; ") + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check %s\n", c)
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "-probe":
			os.Exit(probeMain(os.Stdin, os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: query order and the zpred job stream")
	fs.IntVar(&cfg.seconds, "seconds", 15, "nominal run length in seconds; fixes the pass and job counts")
	fs.IntVar(&trace, "trace", 0, "1 replays the queries layer by layer and reports per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the first pass's spans as a Chrome trace to this file")
	fs.StringVar(&cfg.out, "out", "", "append the full result as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", cfg.workload, workloadNames())
		return 2
	}
	return emit(w, cfg, stdout)
}

// emit runs one workload and prints its table and result line.
func emit(w *workload, cfg config, stdout io.Writer) int {
	rep, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	if cfg.out != "" {
		if err := appendJSONLine(cfg.out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rep.resultLine()); err != nil {
		return 1
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: wrong verdicts or replay drift; see the check lines")
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(w *workload, cfg config) (*report, error) {
	switch {
	case w.queries == nil && cfg.trace:
		return runZpredTraced(w, cfg)
	case w.queries == nil:
		return runZpred(w, cfg)
	case cfg.trace:
		return runClosedTraced(w, cfg)
	}
	return runClosed(w, cfg)
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so each measures
// its own memory, and merges their result lines into one whose metric
// names are prefixed with the workload.
func runAll(cfg config, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	all := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace}
		if cfg.out != "" {
			args = append(args, "-out", cfg.out)
		}
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(cfg.traceOut, ".json")+"-"+w.name+".json")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		line, err := splitResult(buf.Bytes(), stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v (exit: %v)\n", w.name, err, runErr)
			return 1
		}
		all.Correct = all.Correct && line.Correct && runErr == nil
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for name, m := range line.Metrics {
			all.Metrics[w.name+"/"+name] = m
		}
	}
	if err := json.NewEncoder(stdout).Encode(all); err != nil {
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// splitResult copies a child's output to w, except its last line, which
// it parses as the child's result line.
func splitResult(out []byte, w io.Writer) (resultLine, error) {
	out = bytes.TrimRight(out, "\n")
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	w.Write(out[:len(out)-len(last)])
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return resultLine{}, fmt.Errorf("result line: %w", err)
	}
	return line, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
