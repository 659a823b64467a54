package pipeline

import (
	"sync"
	"time"

	"zpre/internal/cprog"
	"zpre/internal/rg"
	"zpre/internal/telemetry"
)

// RGMemo shares rely-guarantee results across runs: the engine runs once
// per (program, model, width, domain, prefilter), however many bounds and
// strategies reuse the result — the proof is bound-independent. Safe for
// concurrent use.
type RGMemo struct {
	hist *telemetry.Histogram

	mu sync.Mutex
	m  map[rgKey]*rg.Result
}

type rgKey struct {
	p    *cprog.Program
	opts rg.Options
}

// NewRGMemo returns an empty memo; hist (optional) receives the engine's
// prove latency per cache miss.
func NewRGMemo(hist *telemetry.Histogram) *RGMemo {
	return &RGMemo{hist: hist, m: map[rgKey]*rg.Result{}}
}

// get returns the (cached) engine result for the run's program and
// options. A program the engine rejects outright counts as unproven with
// no ranges.
func (c *RGMemo) get(p *cprog.Program, opts Options) *rg.Result {
	key := rgKey{p: p, opts: opts.rgOptions()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.m[key]; ok {
		return r
	}
	start := time.Now()
	r, err := rg.Prove(p, key.opts)
	if err != nil {
		r = &rg.Result{}
	}
	if c.hist != nil {
		c.hist.ObserveDuration(time.Since(start))
	}
	c.m[key] = r
	return r
}
