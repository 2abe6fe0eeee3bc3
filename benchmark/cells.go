package main

import (
	"fmt"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// cell is one (app, engine) point of a pass.
type cell struct {
	name string // metric suffix, e.g. "bfs" or "bfs-conservative"
	cfg  core.Config
	b    bench.Benchmark
}

// cellRun is one execution of a cell.
type cellRun struct {
	st  core.Stats
	ns  int64 // host time in RunSwarm, or in the traced split as a whole
	mem memCounts

	// Set by the traced split only.
	buildNS, runNS, verifyNS int64
	runMem                   memCounts
}

// runCell executes one cell. Untraced (tr == nil) it makes exactly the
// call swarmsim, the harness and swarmd make, Benchmark.RunSwarm; traced
// it takes the split below.
func runCell(c *cell, tr *tracer, parent int, trace string) (cellRun, error) {
	if tr != nil {
		return runSplit(c, tr, parent, trace)
	}
	m0 := readMem()
	t0 := time.Now()
	st, err := c.b.RunSwarm(c.cfg)
	ns := time.Since(t0).Nanoseconds()
	return cellRun{st: st, ns: ns, mem: readMem().sub(m0)}, err
}

// runSplit is the traced form of Benchmark.RunSwarm: the same three steps
// RunSwarm takes for every app the benchmark runs, SwarmApp.Backend,
// Backend.RunPhase and SwarmApp.Verify, each under its own span. The run
// span carries the phase's Stats deltas and the allocations it made.
func runSplit(c *cell, tr *tracer, parent int, trace string) (r cellRun, err error) {
	m0 := readMem()
	t0 := time.Now()
	defer func() {
		r.ns = time.Since(t0).Nanoseconds()
		r.mem = readMem().sub(m0)
	}()
	app := c.b.SwarmApp()

	sp := tr.start(parent, trace, "backend.build")
	tb := time.Now()
	bk, err := app.Backend(c.cfg)
	r.buildNS = time.Since(tb).Nanoseconds()
	tr.end(sp, nil)
	if err != nil {
		return r, err
	}

	sp = tr.start(parent, trace, "run")
	rm := readMem()
	tb = time.Now()
	ph, err := bk.RunPhase()
	r.runNS = time.Since(tb).Nanoseconds()
	r.runMem = readMem().sub(rm)
	r.st = ph.Cumulative
	tr.end(sp, map[string]float64{
		"events":  float64(ph.Events),
		"commits": float64(ph.Commits),
		"aborts":  float64(ph.Aborts),
		"mallocs": float64(r.runMem.mallocs),
		"bytes":   float64(r.runMem.bytes),
	})
	if err != nil {
		return r, err
	}

	sp = tr.start(parent, trace, "verify")
	tb = time.Now()
	if app.Verify != nil {
		err = app.Verify(bk.Mem().Load)
	}
	r.verifyNS = time.Since(tb).Nanoseconds()
	tr.end(sp, nil)
	if err != nil {
		return r, fmt.Errorf("swarm result verification failed: %w", err)
	}
	return r, nil
}
