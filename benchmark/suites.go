package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// suite runs a fixed list of cells as passes: every cell once per pass.
type suite struct {
	cells []*cell
	order []int // run order of cells within a pass
	// work is the throughput numerator of one run: simulated events or
	// committed tasks.
	work func(core.Stats) uint64
	// same reports whether a run repeats the first good run of its cell.
	same func(ref, got core.Stats) error
	refs []*core.Stats
}

// pass is one run of every cell.
type pass struct {
	traced bool
	runs   []cellRun // by cell index
	ok     bool      // every cell ran, verified and repeated its reference
	ref    float64   // wall time of the reference around the pass, in ns
	scale  float64   // converts the pass's wall times to reference time
}

// refTime is cell i's host time in reference time (see calib.go).
func (p pass) refTime(i int) float64 { return float64(p.runs[i].ns) * p.scale }

func newSuite(cells []*cell, order []int, work func(core.Stats) uint64, same func(ref, got core.Stats) error) *suite {
	return &suite{cells: cells, order: order, work: work, same: same, refs: make([]*core.Stats, len(cells))}
}

// runPass runs every cell once, recording each as one operation. It
// starts from a collected heap, so no pass pays for an earlier one's
// garbage.
func (s *suite) runPass(id string, tr *tracer, t *tally) pass {
	runtime.GC()
	p := pass{traced: tr != nil, runs: make([]cellRun, len(s.cells)), ok: true}
	psp := tr.start(0, id, "pass")
	before := hostSpeed()
	for _, i := range s.order {
		c := s.cells[i]
		trace := id + "/" + c.name
		csp := tr.start(psp, trace, "cell")
		r, err := runCell(c, tr, csp, trace)
		tr.end(csp, nil)
		if err == nil {
			err = s.check(i, r.st)
		}
		t.record(trace, err)
		p.runs[i] = r
		p.ok = p.ok && err == nil
	}
	p.ref = (before + hostSpeed()) / 2
	p.scale = refScale(p.ref, passRefExp)
	tr.end(psp, nil)
	return p
}

// check compares a run against its cell's first good run.
func (s *suite) check(i int, st core.Stats) error {
	if s.refs[i] == nil {
		s.refs[i] = &st
		return nil
	}
	return s.same(*s.refs[i], st)
}

// measure runs one discarded warm-up pass, then passes until the run's
// time is up. A traced run alternates untraced and traced passes, so the
// two sides see the same conditions and their ratio is the tracing
// overhead.
func (s *suite) measure(rc *runCtx, t *tally) (untraced, traced []pass) {
	s.runPass("warmup", nil, t)
	deadline := time.Now().Add(rc.seconds)
	for i := 1; ; i++ {
		var tr *tracer
		if rc.tr != nil && i%2 == 0 {
			tr = rc.tr
		}
		p := s.runPass(fmt.Sprintf("pass%d", i), tr, t)
		if p.ok && p.traced {
			traced = append(traced, p)
		} else if p.ok {
			untraced = append(untraced, p)
		}
		enough := len(untraced) > 0 && (rc.tr == nil || len(traced) > 0)
		if (enough || i >= 8) && !time.Now().Before(deadline) {
			return untraced, traced
		}
	}
}

// sums adds a per-run quantity over a pass.
func (p pass) sum(f func(cellRun) float64) float64 {
	var v float64
	for _, r := range p.runs {
		v += f(r)
	}
	return v
}

// rate is the suite's work per host second in RunSwarm over good passes:
// each cell's median reference time over the passes, summed, divides the
// cells' summed work, which every good pass repeats. Taking the median per cell
// before summing keeps one slow cell in one pass out of the result.
func (s *suite) rate(ps []pass) float64 {
	if len(ps) == 0 {
		return 0
	}
	work := make([]uint64, len(s.cells))
	ns := make([]int64, len(s.cells))
	for i := range s.cells {
		work[i] = s.work(ps[0].runs[i].st)
		ns[i] = int64(median(perPass(ps, func(p pass) float64 { return p.refTime(i) })))
	}
	return rate(work, ns)
}

// perPass returns f of every pass.
func perPass(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// addPassMetrics adds the end-to-end metrics of a suite's untraced passes:
// throughput (under workName), per-cell and whole-pass host time and
// allocations per committed task, each the median over passes, and the
// wall time of the reference computation, which shows the host's speed.
func (s *suite) addPassMetrics(rep *report, ps []pass, workName, workUnit string) {
	n := len(ps)
	rep.add(workName, workUnit, s.rate(ps), n)
	var passMS float64
	for i, c := range s.cells {
		cellMS := median(perPass(ps, func(p pass) float64 { return p.refTime(i) / 1e6 }))
		rep.add("cell_ms."+c.name, "ms", cellMS, n)
		passMS += cellMS
	}
	rep.add("pass_ms", "ms", passMS, n)
	rep.add("ref_wall_ms", "ms", median(perPass(ps, func(p pass) float64 { return p.ref / 1e6 })), n)
	rep.add("allocs_per_task", "allocs", median(perPass(ps, func(p pass) float64 {
		return ratio(p.sum(func(r cellRun) float64 { return float64(r.mem.mallocs) }),
			p.sum(func(r cellRun) float64 { return float64(r.st.Commits) }))
	})), n)
	rep.alias["work_per_s"] = workName
	rep.alias["latency_ms"] = "pass_ms"
	rep.alias["allocs_per_op"] = "allocs_per_task"
}

// addLayerMetrics adds an engine's per-layer metrics from the traced
// passes: RunPhase time in total and per cell, its cost per unit of work,
// the task counts, and the backend build and verify times around it.
// prefix is "core" or "rt", per names the unit of work ("event" or
// "commit") and backend the engine ("sim" or "rt").
func (s *suite) addLayerMetrics(rep *report, prefix, per, backend string, traced []pass) {
	n := len(traced)
	med := func(f func(cellRun) float64) float64 {
		return median(perPass(traced, func(p pass) float64 { return p.sum(f) }))
	}
	rep.add(prefix+".run_ms", "ms", med(func(r cellRun) float64 { return nsToMS(r.runNS) }), n)
	for i, c := range s.cells {
		rep.add(prefix+".run_ms."+c.name, "ms", median(perPass(traced, func(p pass) float64 { return nsToMS(p.runs[i].runNS) })), n)
	}
	var runNS, work, mallocs, bytes float64
	for _, p := range traced {
		runNS += p.sum(func(r cellRun) float64 { return float64(r.runNS) })
		work += p.sum(func(r cellRun) float64 { return float64(s.work(r.st)) })
		mallocs += p.sum(func(r cellRun) float64 { return float64(r.runMem.mallocs) })
		bytes += p.sum(func(r cellRun) float64 { return float64(r.runMem.bytes) })
	}
	rep.add(prefix+".ns_per_"+per, "ns", ratio(runNS, work), n)
	rep.add(prefix+".allocs_per_"+per, "allocs", ratio(mallocs, work), n)
	rep.add(prefix+".bytes_per_"+per, "B", ratio(bytes, work), n)
	rep.add(prefix+".commits", "count", med(func(r cellRun) float64 { return float64(r.st.Commits) }), n)
	rep.add(prefix+".aborts", "count", med(func(r cellRun) float64 { return float64(r.st.Aborts) }), n)
	rep.add(prefix+".commit_ratio", "fraction", ratio(
		med(func(r cellRun) float64 { return float64(r.st.Commits) }),
		med(func(r cellRun) float64 { return float64(r.st.Dequeues) })), n)
	rep.add("backend.build_ms."+backend, "ms", med(func(r cellRun) float64 { return nsToMS(r.buildNS) }), n)
	rep.add("bench.verify_ms", "ms", med(func(r cellRun) float64 { return nsToMS(r.verifyNS) }), n)
}

// addOverhead adds trace.overhead_frac: host time per unit of work in
// traced passes over that in untraced passes, minus one.
func (s *suite) addOverhead(rep *report, untraced, traced []pass) {
	rep.add("trace.overhead_frac", "fraction", ratio(s.rate(untraced), s.rate(traced))-1, len(traced))
}

// setupCells constructs the named apps reps times, as bench.New does for
// every CLI, and keeps the last set. setup_s is the median repetition in
// reference time, so a first construction that fills the graph cache does
// not count; bench.new_ms is the same median in wall time.
func setupCells(rc *runCtx, rep *report, scale bench.Scale, apps []string, reps int) map[string]bench.Benchmark {
	var secs []float64
	var bs map[string]bench.Benchmark
	before := hostSpeed()
	for k := 0; k < reps; k++ {
		bs = nil // let the collection below free the previous set
		runtime.GC()
		trace := fmt.Sprintf("setup%d", k)
		sp := rc.tr.start(0, trace, "setup")
		t0 := time.Now()
		bs = map[string]bench.Benchmark{}
		for _, app := range apps {
			asp := rc.tr.start(sp, trace, "bench.new:"+app)
			b, err := bench.New(app, scale)
			rc.tr.end(asp, nil)
			if err != nil {
				rep.tally.record("setup "+app, err)
			}
			bs[app] = b
		}
		secs = append(secs, time.Since(t0).Seconds())
		rc.tr.end(sp, nil)
	}
	rep.add("setup_s", "s", median(secs)*refScale((before+hostSpeed())/2, passRefExp), reps)
	rep.add("bench.new_ms", "ms", median(secs)*1000, reps)
	rep.alias["setup_s"] = "setup_s"
	return bs
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// simSuite is the cycle-level simulator on the default 64-core machine
// at -scale small.
func simSuite(rc *runCtx) *report {
	rep := newReport()
	bs := setupCells(rc, rep, bench.ScaleSmall, simCells, 31)
	cfg := core.DefaultConfig(64)
	cfg.Seed = rc.seed
	var cells []*cell
	for _, name := range simCells {
		cells = append(cells, &cell{name: name, cfg: cfg, b: bs[name]})
	}
	s := newSuite(cells, identity(len(cells)),
		func(st core.Stats) uint64 { return st.Events },
		func(ref, got core.Stats) error {
			if ref.Events != got.Events || ref.Cycles != got.Cycles || ref.Commits != got.Commits {
				return fmt.Errorf("events/cycles/commits %d/%d/%d, first pass %d/%d/%d",
					got.Events, got.Cycles, got.Commits, ref.Events, ref.Cycles, ref.Commits)
			}
			return nil
		})
	untraced, traced := s.measure(rc, &rep.tally)
	s.addPassMetrics(rep, untraced, "sim_events_per_s", "events/s")
	if len(untraced) > 0 {
		rep.add("sim_cycles", "cycles", untraced[0].sum(func(r cellRun) float64 { return float64(r.st.Cycles) }), 1)
	}
	rep.addPeakRSS()
	if rc.tr == nil {
		return rep
	}

	s.addLayerMetrics(rep, "core", "event", "sim", traced)
	s.addOverhead(rep, untraced, traced)
	med := func(f func(core.Stats) float64) float64 {
		return median(perPass(traced, func(p pass) float64 { return p.sum(func(r cellRun) float64 { return f(r.st) }) }))
	}
	n := len(traced)
	counts := []struct {
		name, unit string
		f          func(core.Stats) float64
	}{
		{"core.events", "count", func(st core.Stats) float64 { return float64(st.Events) }},
		{"core.cycles", "cycles", func(st core.Stats) float64 { return float64(st.Cycles) }},
		{"core.bloom_checks", "count", func(st core.Stats) float64 { return float64(st.BloomChecks) }},
		{"core.vt_compares", "count", func(st core.Stats) float64 { return float64(st.VTCompares) }},
		{"core.gvt_updates", "count", func(st core.Stats) float64 { return float64(st.GVTUpdates) }},
		{"core.spilled_tasks", "count", func(st core.Stats) float64 { return float64(st.SpilledTasks) }},
		{"core.nacks", "count", func(st core.Stats) float64 { return float64(st.NACKs) }},
		{"cache.mem_accesses", "count", func(st core.Stats) float64 { return float64(st.Cache.MemAccesses) }},
		{"noc.bytes", "B", func(st core.Stats) float64 { return float64(st.TotalTrafficBytes()) }},
	}
	for _, c := range counts {
		rep.add(c.name, c.unit, med(c.f), n)
	}
	rep.add("core.stall_frac", "fraction", ratio(
		med(func(st core.Stats) float64 { return float64(st.StallCycles) }),
		med(func(st core.Stats) float64 { return float64(st.TotalCoreCycles()) })), n)
	rep.add("cache.l1_hit_ratio", "fraction", ratio(
		med(func(st core.Stats) float64 { return float64(st.Cache.L1Hits) }),
		med(func(st core.Stats) float64 { return float64(st.Cache.Loads + st.Cache.Stores) })), n)
	simProbes(rep, rc.tr)
	return rep
}

// rtLarge is the native runtime at 2 workers on -scale large inputs.
func rtLarge(rc *runCtx) *report {
	rep := newReport()
	var apps []string // bfs-conservative runs bfs's instance
	for _, name := range rtCells {
		if app := strings.TrimSuffix(name, "-conservative"); app == name {
			apps = append(apps, app)
		}
	}
	bs := setupCells(rc, rep, bench.ScaleLarge, apps, 3)
	cellsAt := func(workers int) []*cell {
		var cells []*cell
		for _, name := range rtCells {
			app := strings.TrimSuffix(name, "-conservative")
			cfg := core.DefaultConfig(workers)
			cfg.Backend = "rt"
			if app != name {
				cfg.Backend = "rt-conservative"
			}
			cells = append(cells, &cell{name: name, cfg: cfg, b: bs[app]})
		}
		return cells
	}
	order := rand.New(rand.NewSource(rc.seed)).Perm(len(rtCells))
	commits := func(st core.Stats) uint64 { return st.Commits }
	same := func(ref, got core.Stats) error {
		if ref.Commits != got.Commits {
			return fmt.Errorf("commits %d, first pass %d", got.Commits, ref.Commits)
		}
		return nil
	}
	s := newSuite(cellsAt(2), order, commits, same)
	untraced, traced := s.measure(rc, &rep.tally)
	s.addPassMetrics(rep, untraced, "rt_tasks_per_s", "tasks/s")
	rep.addPeakRSS()
	if rc.tr == nil {
		return rep
	}

	s.addLayerMetrics(rep, "rt", "commit", "rt", traced)
	s.addOverhead(rep, untraced, traced)
	// One pass at 1 worker, checked against the 2-worker commits.
	s1 := newSuite(cellsAt(1), order, commits, same)
	s1.refs = s.refs
	p1 := s1.runPass("workers1", nil, &rep.tally)
	rep.add("rt.scaling_2v1", "ratio", ratio(s.rate(untraced), s1.rate([]pass{p1})), 1)
	rtProbes(rep, rc.tr)
	graphProbes(rep, rc.tr, rc.tmp)
	return rep
}
