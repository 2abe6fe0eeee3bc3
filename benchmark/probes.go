package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	swarm "github.com/swarm-sim/swarm"
	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/graph"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/sim"
)

// Probes time one layer's public functions on a fixed synthetic input.
// Each runs probeReps times and reports the median per-operation time, so
// one disturbed repetition does not move it.
const probeReps = 5

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// probe runs fn probeReps times under one span and returns the median of
// its results.
func probe(tr *tracer, name string, fn func() float64) float64 {
	sp := tr.start(0, "probe", "probe."+name)
	defer tr.end(sp, nil)
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// nsPer times fn and divides by n operations.
func nsPer(n int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// xorshift is a fixed pseudo-random address stream for the probes.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// probeEngine is sim.ns_per_event: Engine.After plus Step on a schedule
// where one event in eight lands beyond the timing wheel.
func probeEngine() float64 {
	const live, total = 512, 400_000
	var e sim.Engine
	rng := xorshift(88172645463325252)
	scheduled := 0
	var fire func()
	fire = func() {
		if scheduled >= total {
			return
		}
		scheduled++
		d := rng.next()
		delay := 1 + d%200
		if d%8 == 0 {
			delay = 300 + d%4000
		}
		e.After(delay, fire)
	}
	for i := 0; i < live; i++ {
		fire()
	}
	return nsPer(total, func() {
		for e.Step() {
		}
	})
}

// probeGuestStart is guest.start_ns: StartTask, the first Resume of an
// empty body and Recycle.
func probeGuestStart() float64 {
	const n = 200_000
	fn := func(guest.TaskEnv) {}
	return nsPer(n, func() {
		for i := 0; i < n; i++ {
			co := guest.StartTask(fn, guest.TaskDesc{})
			co.Resume(guest.Result{})
			co.Recycle()
		}
	})
}

// probeGuestResume is guest.resume_ns: one Resume per guest load.
func probeGuestResume() float64 {
	const n = 1_000_000
	co := guest.StartTask(func(e guest.TaskEnv) {
		for e.Load(0) != 1 {
		}
	}, guest.TaskDesc{})
	co.Resume(guest.Result{})
	ns := nsPer(n, func() {
		for i := 0; i < n; i++ {
			co.Resume(guest.Result{})
		}
	})
	co.Resume(guest.Result{Val: 1})
	co.Recycle()
	return ns
}

// probeBloomCheck is bloom.check_ns: Probe.Fill plus MayContainProbe
// against a signature holding 64 lines, the size of a small task's set.
func probeBloomCheck() float64 {
	const n = 1_000_000
	cfg := bloom.Default()
	f := bloom.NewFilter(cfg)
	var p bloom.Probe
	rng := xorshift(2463534242)
	for i := 0; i < 64; i++ {
		p.Fill(cfg, rng.next()%(1<<20))
		f.InsertProbe(&p)
	}
	hits := uint64(0)
	ns := nsPer(n, func() {
		for i := 0; i < n; i++ {
			p.Fill(cfg, rng.next()%(1<<20))
			if f.MayContainProbe(&p) {
				hits++
			}
		}
	})
	sink += hits
	return ns
}

// probeBloomInsert is bloom.insert_ns: Probe.Fill plus InsertProbe, with
// the signature cleared every 64 lines as a committing task's would be.
func probeBloomInsert() float64 {
	const n = 1_000_000
	cfg := bloom.Default()
	f := bloom.NewFilter(cfg)
	var p bloom.Probe
	rng := xorshift(2463534242)
	ns := nsPer(n, func() {
		for i := 0; i < n; i++ {
			if i%64 == 0 {
				f.Clear()
			}
			p.Fill(cfg, rng.next()%(1<<20))
			f.InsertProbe(&p)
		}
	})
	sink += uint64(f.Count())
	return ns
}

// spawnApp is a flood of n leaf tasks at timestamps 1..n, fanned out by a
// tree of spawners at timestamp 0 (a task has at most eight untracked
// children). Leaf i increments word slot(i); check verifies the result.
func spawnApp(n uint64, slot func(i uint64) uint64) (swarm.App, func(swarm.Result) error) {
	var words swarm.Words
	app := swarm.App{Build: func(b *swarm.Builder) []swarm.Task {
		words = b.NewWords(slot(n-1) + 1)
		leaf := b.Fn("leaf", func(e swarm.TaskEnv) {
			a := words.Addr(slot(e.Arg(0)))
			e.Store(a, e.Load(a)+1)
		})
		var spawn swarm.FnID
		spawn = b.Fn("spawn", func(e swarm.TaskEnv) {
			lo, hi := e.Arg(0), e.Arg(1)
			if hi-lo <= 8 {
				for i := lo; i < hi; i++ {
					e.EnqueueArgs(leaf, i+1, [3]uint64{i})
				}
				return
			}
			step := (hi - lo + 7) / 8
			for s := lo; s < hi; s += step {
				e.EnqueueArgs(spawn, 0, [3]uint64{s, min(s+step, hi)})
			}
		})
		return []swarm.Task{{Fn: spawn, TS: 0, Args: [3]uint64{0, n}}}
	}}
	check := func(res swarm.Result) error {
		var sum uint64
		for _, v := range res.Words(words.Base(), words.Len()) {
			sum += v
		}
		if sum != n {
			return fmt.Errorf("leaves added %d, want %d", sum, n)
		}
		return nil
	}
	return app, check
}

// independent gives every leaf its own cache line; hot sends every leaf
// to one word.
func independent(i uint64) uint64 { return i * 8 }
func hot(uint64) uint64           { return 0 }

// probeRun is one swarm.Run probe: host nanoseconds per committed task.
// A wrong result is counted as a failed operation.
func probeRun(t *tally, name string, cfg swarm.Config, n uint64, slot func(uint64) uint64) func() float64 {
	return func() float64 {
		app, check := spawnApp(n, slot)
		t0 := time.Now()
		res, err := swarm.Run(cfg, app)
		ns := time.Since(t0).Nanoseconds()
		if err == nil {
			err = check(res)
		}
		t.record("probe "+name, err)
		return float64(ns) / float64(max(res.Stats.Commits, 1))
	}
}

func rtConfig(workers int) swarm.Config {
	cfg := swarm.DefaultConfig(workers)
	cfg.Backend = "rt"
	return cfg
}

// simProbes adds the simulator-side layer probes: the event engine, guest
// coroutines, bloom signatures and whole-machine task, conflict and spill
// costs through swarm.Run.
func simProbes(rep *report, tr *tracer) {
	rep.add("sim.ns_per_event", "ns", probe(tr, "sim.ns_per_event", probeEngine), probeReps)
	rep.add("guest.start_ns", "ns", probe(tr, "guest.start_ns", probeGuestStart), probeReps)
	rep.add("guest.resume_ns", "ns", probe(tr, "guest.resume_ns", probeGuestResume), probeReps)
	rep.add("bloom.check_ns", "ns", probe(tr, "bloom.check_ns", probeBloomCheck), probeReps)
	rep.add("bloom.insert_ns", "ns", probe(tr, "bloom.insert_ns", probeBloomInsert), probeReps)
	t := &rep.tally
	rep.add("core.task_ns", "ns", probe(tr, "core.task_ns", probeRun(t, "core.task_ns", swarm.DefaultConfig(64), 2048, independent)), probeReps)
	rep.add("core.conflict_ns", "ns", probe(tr, "core.conflict_ns", probeRun(t, "core.conflict_ns", swarm.DefaultConfig(64), 256, hot)), probeReps)
	// A 4-core machine has one tile with 256 task-queue entries, so a
	// flood of 16k tasks spills most of them.
	rep.add("core.spill_ns", "ns", probe(tr, "core.spill_ns", probeRun(t, "core.spill_ns", swarm.DefaultConfig(4), 16384, independent)), probeReps)
}

// rtProbes adds the native runtime's per-task probes.
func rtProbes(rep *report, tr *tracer) {
	t := &rep.tally
	rep.add("rt.task_ns.w1", "ns", probe(tr, "rt.task_ns.w1", probeRun(t, "rt.task_ns.w1", rtConfig(1), 20000, independent)), probeReps)
	rep.add("rt.task_ns.w2", "ns", probe(tr, "rt.task_ns.w2", probeRun(t, "rt.task_ns.w2", rtConfig(2), 20000, independent)), probeReps)
	rep.add("rt.conflict_ns", "ns", probe(tr, "rt.conflict_ns", probeRun(t, "rt.conflict_ns", rtConfig(2), 5000, hot)), probeReps)
}

// roadnet is the large road network the sssp cell loads.
const roadnet = "roadnet-320x320-s3"

func genRoadnet() *graph.Graph { return graph.RoadNet(320, 320, 3) }

// graphProbes adds graph.LoadOrGenerate of the large road network from
// the warm cache and from an empty cache directory under tmp.
func graphProbes(rep *report, tr *tracer, tmp string) {
	t := &rep.tally
	load := func() float64 {
		t0 := time.Now()
		g, err := graph.LoadOrGenerate(roadnet, genRoadnet)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil && g.N == 0 {
			err = fmt.Errorf("empty graph")
		}
		t.record("probe graph.load", err)
		return ms
	}
	rep.add("graph.load_warm_ms", "ms", probe(tr, "graph.load_warm_ms", load), probeReps)
	cold := func() float64 {
		dir, err := os.MkdirTemp(tmp, "graphs-cold-")
		if err != nil {
			t.record("probe graph.load_cold", err)
			return 0
		}
		defer os.RemoveAll(dir)
		if prev, ok := os.LookupEnv(graph.CacheDirEnv); ok {
			defer os.Setenv(graph.CacheDirEnv, prev)
		} else {
			defer os.Unsetenv(graph.CacheDirEnv)
		}
		os.Setenv(graph.CacheDirEnv, filepath.Join(dir, "cache"))
		return load()
	}
	rep.add("graph.load_cold_ms", "ms", probe(tr, "graph.load_cold_ms", cold), probeReps)
}
