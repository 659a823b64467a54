package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, ahead of any set-up work.
var processStart = time.Now()

// usage is a snapshot of the process's clocks and heap allocation
// counters; the difference of two snapshots is what a phase used.
type usage struct {
	wall       time.Duration // since process start
	cpu        time.Duration // user + system, all threads
	allocBytes uint64
	gcCPU      float64 // runtime estimate, seconds
	totalCPU   float64 // runtime estimate, seconds
}

var usageSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		wall:       time.Since(processStart),
		cpu:        cpuTime(),
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

func (u usage) minus(v usage) usage {
	return usage{
		wall:       u.wall - v.wall,
		cpu:        u.cpu - v.cpu,
		allocBytes: u.allocBytes - v.allocBytes,
		gcCPU:      u.gcCPU - v.gcCPU,
		totalCPU:   u.totalCPU - v.totalCPU,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase brackets a timed phase.
type phase struct {
	start  usage
	waited time.Duration
}

func beginPhase(p *speedProbe) phase { return phase{readUsage(), p.waited} }

// used is what the phase used. A closed loop leaves out the wall time it
// waited on probe samples. An open loop keeps it: it samples only while
// the service is idle, and its jobs run to a schedule the waits do not
// delay.
func (ph phase) used(p *speedProbe, open bool) usage {
	u := readUsage().minus(ph.start)
	if !open {
		u.wall -= p.waited - ph.waited
	}
	return u
}

// allocCounter reads the heap allocation counters around one layer call.
// It reuses its sample slice, so reading it allocates nothing.
type allocCounter struct{ s [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.s[0].Name = usageSamples[0]
	c.s[1].Name = usageSamples[1]
	return c
}

func (c *allocCounter) read() (bytes, objs uint64) {
	metrics.Read(c.s[:])
	return c.s[0].Value.Uint64(), c.s[1].Value.Uint64()
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default exclusive method), so
// spreads computed here match the ones computed from printed results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailLadder lists the percentiles, in per-mille, a tail is reported at.
var tailLadder = []int{990, 980, 950, 900, 750, 500}

// tailPerMille picks the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it (p50 when none does).
func tailPerMille(n int) int {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 500
}

// rank is the 1-based nearest-rank index of the p-per-mille percentile.
func rank(n, p int) int {
	return max(1, (n*p+999)/1000)
}

// percentile returns the nearest-rank p-per-mille percentile of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// fingerprint records what a result was measured on.
type fingerprint struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Passes     int     `json:"passes"`
	Rate       float64 `json:"offered_rate"`
	// HostSpeed and SetupHostSpeed are the probe's speed relative to the
	// reference host over the timed phase and over the set-ups; see
	// speedProbe.
	HostSpeed      float64 `json:"host_speed"`
	SetupHostSpeed float64 `json:"setup_host_speed"`
}

func newFingerprint(cfg config) fingerprint {
	return fingerprint{
		Commit:     commit(),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
}

// commit is the VCS revision the binary was built from, as stamped by the
// go command ("unknown" outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
