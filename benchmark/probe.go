package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared machines whose speed drifts with the load
// of their other tenants: on the reference machine the same corpus run
// took anywhere from 0.30 to 0.64 ms per query within twenty minutes,
// which no run length averages out. A run therefore measures the host's
// current speed with a fixed probe that uses no repository code, and
// scales every time it reports to a reference speed:
// reported = measured × probeRate / refProbeRate. The unscaled value of
// every time is kept as its "raw" value.
//
// The host's speed also varies from one 50 ms slice to the next by about
// 13 %, so the estimate is only as good as the number of slices behind
// it: a closed loop takes a slice after every probeEvery of queries, a
// third of the run. The probe runs in a child process (this command with
// -probe), so its allocations and collections stay out of the measured
// process's heap; the measured process waits while a slice runs.
const (
	// refProbeRate is the probe rate, in units per second, that scaled
	// times refer to: the reference machine's typical rate.
	refProbeRate = 310.0
	// probeSlice is one probe sample; probeEvery is the time a closed loop
	// spends on queries between two samples.
	probeSlice = 50 * time.Millisecond
	probeEvery = 100 * time.Millisecond
	// edgeSlices are taken before and after the timed phase.
	edgeSlices = 4
	// rssEvery spaces the resident-set samples.
	rssEvery = 100 * time.Millisecond
)

// probeDoc is part of the probe's fixed input: decoding and encoding it
// walks pointers, maps and reflection data and parses and formats numbers.
type probeDoc struct {
	Name  string            `json:"name"`
	Vals  []float64         `json:"vals"`
	Attrs map[string]string `json:"attrs"`
	Kids  []*probeDoc       `json:"kids"`
}

// probeState is the probe's fixed input and reused buffers. A probe unit
// has two halves of about equal time. One decodes and encodes the document
// afresh, allocating as the verifier does. The other decodes into the same
// document and encodes into the same buffer, then sorts and looks up fixed
// keys: branchy, cache-bound work with few allocations. Against the
// allocating half alone the workloads' times moved about 0.6–0.9× as much
// as the probe; against the other half alone, 0.9–1.5×.
type probeState struct {
	input []byte
	doc   probeDoc
	out   bytes.Buffer
	keys  []int
	work  []int
	index map[int]int
	sink  int
}

func newProbeState() *probeState {
	p := &probeState{}
	root := &probeDoc{Name: "root"}
	for i := 0; i < 40; i++ {
		k := &probeDoc{
			Name:  "k" + strconv.Itoa(i),
			Vals:  []float64{1.5, 2.5, float64(i)},
			Attrs: map[string]string{"a": "x", "b": strconv.Itoa(i)},
		}
		for j := 0; j < 5; j++ {
			k.Kids = append(k.Kids, &probeDoc{Name: "g" + strconv.Itoa(j), Vals: []float64{float64(j)}})
		}
		root.Kids = append(root.Kids, k)
	}
	var err error
	if p.input, err = json.Marshal(root); err != nil {
		panic(err) // a fixed document always encodes
	}
	r := rand.New(rand.NewSource(1))
	p.keys = make([]int, 1<<14)
	p.work = make([]int, len(p.keys))
	p.index = make(map[int]int, len(p.keys))
	for i := range p.keys {
		p.keys[i] = r.Int()
		p.index[p.keys[i]] = i
	}
	return p
}

// freshRoundTrips is how many allocating round trips balance the reusing
// half of a unit.
const freshRoundTrips = 4

// unit is one unit of probe work.
func (p *probeState) unit() {
	for i := 0; i < freshRoundTrips; i++ {
		var d probeDoc
		if err := json.Unmarshal(p.input, &d); err != nil {
			panic(err) // the fixed input always decodes
		}
		if _, err := json.Marshal(&d); err != nil {
			panic(err)
		}
	}
	if err := json.Unmarshal(p.input, &p.doc); err != nil {
		panic(err)
	}
	p.out.Reset()
	if err := json.NewEncoder(&p.out).Encode(&p.doc); err != nil {
		panic(err)
	}
	copy(p.work, p.keys)
	slices.Sort(p.work)
	for _, k := range p.keys[:4096] {
		p.sink += p.index[k]
	}
}

// probeMain is the probe child. For each request line, a duration, it
// collects its heap and then runs probe units with collection off for
// that long, and answers "<units> <nanoseconds>". It exits at the end of
// its input.
func probeMain(in io.Reader, out io.Writer) int {
	debug.SetGCPercent(-1)
	work := newProbeState()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		d, err := time.ParseDuration(sc.Text())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark probe: %v\n", err)
			return 2
		}
		runtime.GC()
		start := time.Now()
		units := 0
		for time.Since(start) < d {
			work.unit()
			units++
		}
		if _, err := fmt.Fprintf(out, "%d %d\n", units, time.Since(start)); err != nil {
			return 1
		}
	}
	return 0
}

// speedProbe is the measured process's side of the probe: it asks the
// child for slices, sums what they measured, and samples the resident set.
type speedProbe struct {
	cmd  *exec.Cmd
	req  io.WriteCloser
	resp *bufio.Reader
	err  error // the first failed sample; later samples are skipped

	// units and busy are the probe units done, and the time they took,
	// since the last take.
	units int
	busy  time.Duration
	// waited is the wall time spent waiting on samples; a closed loop's
	// timed phase leaves it out.
	waited    time.Duration
	nextProbe time.Time
	nextRSS   time.Time
	rss       []float64
}

// startProbe starts the probe child.
func startProbe() (*speedProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{cmd: exec.Command(exe, "-probe")}
	p.cmd.Stderr = os.Stderr
	if p.req, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.resp = bufio.NewReader(out)
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return p, nil
}

// begin takes the samples before a timed phase.
func (p *speedProbe) begin() {
	p.sampleRSS()
	p.sample(edgeSlices, probeSlice)
}

// end takes the samples after a timed phase, stops the child and waits for
// it, and returns the host's speed over the samples since begin.
func (p *speedProbe) end() (float64, error) {
	p.sampleRSS()
	p.sample(edgeSlices, probeSlice)
	speed := p.take()
	return speed, p.close()
}

// close stops the child and waits for it; it reports the first error of
// the probe's life.
func (p *speedProbe) close() error {
	if p.cmd.ProcessState != nil {
		return p.err
	}
	p.req.Close()
	if err := p.cmd.Wait(); err != nil && p.err == nil {
		p.err = fmt.Errorf("probe: %w", err)
	}
	return p.err
}

// sample takes n slices of length d and waits for them.
func (p *speedProbe) sample(n int, d time.Duration) {
	t0 := time.Now()
	for i := 0; i < n && p.err == nil; i++ {
		var units int
		var busy time.Duration
		if _, err := fmt.Fprintln(p.req, d); err != nil {
			p.err = fmt.Errorf("probe: %w", err)
			break
		}
		line, err := p.resp.ReadString('\n')
		if err == nil {
			_, err = fmt.Sscan(line, &units, &busy)
		}
		if err != nil {
			p.err = fmt.Errorf("probe: %w", err)
			break
		}
		p.units += units
		p.busy += busy
	}
	p.waited += time.Since(t0)
	p.nextProbe = time.Now().Add(probeEvery)
}

// take returns the host's speed relative to the reference host over the
// slices since the last take (above 1 when faster): a time measured then,
// times the speed, is the time at reference speed.
func (p *speedProbe) take() float64 {
	speed := float64(p.units) / p.busy.Seconds() / refProbeRate
	p.units, p.busy = 0, 0
	return speed
}

// tick samples the resident set once per rssEvery, and takes a probe slice
// once per probeEvery.
func (p *speedProbe) tick() {
	p.tickRSS()
	if time.Now().After(p.nextProbe) {
		p.sample(1, probeSlice)
	}
}

func (p *speedProbe) tickRSS() {
	if now := time.Now(); now.After(p.nextRSS) {
		p.sampleRSS()
		p.nextRSS = now.Add(rssEvery)
	}
}

func (p *speedProbe) sampleRSS() { p.rss = append(p.rss, rssMiB()) }

// rssMiB is the process's current resident set size.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
