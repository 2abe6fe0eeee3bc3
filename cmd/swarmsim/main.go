// swarmsim runs one or more benchmarks on a simulated Swarm machine and
// reports detailed statistics. Multi-benchmark invocations (a comma list
// or -app all) fan out over -workers host goroutines; per-app reports are
// printed in the order the apps were requested, identical for every
// worker count.
//
// Usage:
//
//	swarmsim -app sssp -cores 64 -scale small
//	swarmsim -app silo -cores 16 -impl parallel
//	swarmsim -app astar -cores 16 -trace 500
//	swarmsim -app all -cores 64 -workers 8
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/harness"
	"github.com/swarm-sim/swarm/internal/noc"
)

func main() {
	app := flag.String("app", "sssp",
		"benchmark: "+strings.Join(bench.AppNames(), ", ")+"; a comma list; or all")
	cores := flag.Int("cores", 64, "core count (machine scales per Table 3)")
	impl := flag.String("impl", "swarm", "implementation: swarm, serial, parallel")
	scaleF := flag.String("scale", "small", "input scale: tiny, small, medium, large")
	cq := flag.Int("commitq", 0, "override commit queue entries per core (on rt backends too)")
	gvt := flag.Uint64("gvt", 0, "override GVT update period (cycles)")
	trace := flag.Uint64("trace", 0, "emit a per-tile trace sample every N cycles")
	seed := flag.Int64("seed", 1, "enqueue-placement seed (random mapper only)")
	mapper := flag.String("mapper", "random",
		"task-mapping policy: "+strings.Join(core.MapperNames(), ", "))
	backendF := flag.String("backend", "sim",
		"execution backend: "+strings.Join(backend.Names(), ", ")+
			" (native rt backends report wall-clock, not cycles)")
	phases := flag.Bool("phases", false,
		"print per-phase statistics for session (multi-phase) benchmarks")
	csvOut := flag.Bool("csv", false,
		"emit one machine-readable CSV row per app instead of the report (-impl swarm only; swarmd serves the same format)")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent simulations for multi-benchmark runs")
	flag.Parse()

	// Validate every selector flag up front against the registries, before
	// any input generation runs: a typo fails in milliseconds with the
	// valid options in the message instead of minutes later without them.
	scale, err := bench.ParseScale(*scaleF)
	if err != nil {
		log.Fatal(err)
	}
	names, err := harness.ResolveApps(*app)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.CheckMapper(*mapper); err != nil {
		log.Fatal(err)
	}
	if err := harness.ValidateCores(*cores); err != nil {
		log.Fatal(err)
	}
	if err := backend.CheckName(*backendF); err != nil {
		log.Fatal(err)
	}
	if *csvOut && *impl != "swarm" {
		log.Fatalf("-csv requires -impl swarm (have %q)", *impl)
	}

	// Construct the requested apps only (input generation and host
	// references are the startup cost, so don't pay them for apps that
	// never run). Names are already validated, so New cannot fail.
	apps := make([]bench.Benchmark, len(names))
	for i, name := range names {
		b, err := bench.New(name, scale)
		if err != nil {
			log.Fatal(err)
		}
		apps[i] = b
	}

	run := func(w io.Writer, b bench.Benchmark) error {
		switch *impl {
		case "serial":
			cyc, err := b.RunSerial(*cores)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s serial on a %d-core machine: %d cycles (verified)\n", b.Name(), *cores, cyc)
		case "parallel":
			pb, ok := b.(bench.Parallel)
			if !ok {
				return fmt.Errorf("%s has no software-parallel version (as in the paper)", b.Name())
			}
			cyc, err := bench.RunParallel(pb, *cores)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s software-parallel on %d cores: %d cycles (verified)\n", b.Name(), *cores, cyc)
		case "swarm":
			cfg := core.DefaultConfig(*cores)
			cfg.Seed = *seed
			cfg.Mapper = *mapper
			cfg.Backend = *backendF
			if *cq > 0 {
				cfg.CommitQPerCore = *cq
			}
			if *gvt > 0 {
				cfg.GVTPeriod = *gvt
			}
			cfg.TraceInterval = *trace
			var st core.Stats
			if sb, ok := b.(bench.Sessioned); ok && *phases {
				phs, err := bench.RunPhases(sb, cfg)
				if err != nil {
					return err
				}
				st = phs[len(phs)-1].Cumulative
				if !*csvOut {
					printPhases(w, b.Name(), phs)
				}
			} else {
				var err error
				st, err = b.RunSwarm(cfg)
				if err != nil {
					return err
				}
				if *phases && !*csvOut {
					fmt.Fprintf(w, "%s is single-phase; -phases adds nothing\n", b.Name())
				}
			}
			if *csvOut {
				fmt.Fprintln(w, harness.StatsCSVRow(b.Name(), st))
				return nil
			}
			printStats(w, b.Name(), st)
			if *trace > 0 {
				harness.PrintFig18(w, st, 40)
			}
		default:
			return fmt.Errorf("unknown impl %q", *impl)
		}
		return nil
	}

	// One buffer per app: workers deposit output by index, so stdout reads
	// in request order no matter which simulation finishes first. Errors
	// are collected per app (never returned to the pool, which would stop
	// a sequential run early but not a concurrent one). Every completed
	// report prints and every failure is reported — one bad app no longer
	// discards the runs that already succeeded — then the process exits
	// non-zero exactly once.
	bufs := make([]bytes.Buffer, len(apps))
	errs := make([]error, len(apps))
	pool := harness.NewPool(*workers)
	pool.Run(len(apps),
		func(i int) string { return apps[i].Name() },
		func(i int) error { errs[i] = run(&bufs[i], apps[i]); return nil })
	if *csvOut {
		fmt.Println(harness.StatsCSVHeader)
	}
	failed := 0
	for i := range bufs {
		os.Stdout.Write(bufs[i].Bytes())
		if errs[i] != nil {
			failed++
			fmt.Fprintf(os.Stderr, "swarmsim: %s: %v\n", apps[i].Name(), errs[i])
		}
	}
	if failed > 0 {
		log.Fatalf("%d of %d runs failed", failed, len(apps))
	}
}

// printPhases reports each quiescence-to-quiescence phase of a session
// benchmark before the cumulative report: model cycles, spills and queue
// occupancies on the simulator, host wall time on the native backends.
func printPhases(w io.Writer, app string, phs []core.PhaseStats) {
	fmt.Fprintf(w, "%s session: %d phases\n", app, len(phs))
	if len(phs) > 0 && native(phs[0].Stats) {
		fmt.Fprintf(w, "  %5s %12s %10s %8s\n", "phase", "wall_ms", "commits", "aborts")
		for _, ph := range phs {
			fmt.Fprintf(w, "  %5d %12.3f %10d %8d\n", ph.Phase, float64(ph.WallNS)/1e6, ph.Commits, ph.Aborts)
		}
		return
	}
	fmt.Fprintf(w, "  %5s %12s %10s %8s %8s %8s %8s\n",
		"phase", "cycles", "commits", "aborts", "spilled", "tq_occ", "cq_occ")
	for _, ph := range phs {
		fmt.Fprintf(w, "  %5d %12d %10d %8d %8d %8.1f %8.1f\n",
			ph.Phase, ph.Cycles, ph.Commits, ph.Aborts, ph.SpilledTasks,
			ph.AvgTaskQueueOcc, ph.AvgCommitQueueOcc)
	}
}

// native reports whether a run executed on a native (rt*) backend, which
// measures wall time instead of model cycles.
func native(st core.Stats) bool { return st.Backend != "" && st.Backend != "sim" }

func printStats(w io.Writer, app string, st core.Stats) {
	if native(st) {
		printNativeStats(w, app, st)
		return
	}
	fmt.Fprintf(w, "%s on %d-core Swarm (verified)\n", app, st.Cores)
	fmt.Fprintf(w, "  cycles            %12d\n", st.Cycles)
	fmt.Fprintf(w, "  commits           %12d\n", st.Commits)
	fmt.Fprintf(w, "  aborts            %12d (%.1f%% of dispatches)\n", st.Aborts,
		100*float64(st.Aborts)/float64(max64(st.Dequeues, 1)))
	fmt.Fprintf(w, "  spilled tasks     %12d\n", st.SpilledTasks)
	fmt.Fprintf(w, "  enqueue NACKs     %12d\n", st.NACKs)
	tot := float64(st.TotalCoreCycles())
	fmt.Fprintf(w, "  core cycles: %.1f%% committed, %.1f%% aborted, %.1f%% spill, %.1f%% stall\n",
		100*float64(st.CommittedCycles)/tot, 100*float64(st.AbortedCycles)/tot,
		100*float64(st.SpillCycles)/tot, 100*float64(st.StallCycles)/tot)
	fmt.Fprintf(w, "  avg occupancy: task queue %.0f, commit queue %.0f\n",
		st.AvgTaskQueueOcc, st.AvgCommitQueueOcc)
	fmt.Fprintf(w, "  mapper %s: task-queue imbalance %.2f (max/mean)\n",
		st.Mapper, st.TaskQOccImbalance())
	fmt.Fprintf(w, "  bloom checks      %12d (VT compares: %d)\n", st.BloomChecks, st.VTCompares)
	fmt.Fprintf(w, "  NoC GB/s per tile: mem %.2f, enqueue %.2f, abort %.2f, gvt %.2f\n",
		st.TrafficGBps(noc.ClassMem), st.TrafficGBps(noc.ClassEnqueue),
		st.TrafficGBps(noc.ClassAbort), st.TrafficGBps(noc.ClassGVT))
	fmt.Fprintf(w, "  cache: %d loads, %d stores, %.1f%% L1 hits, %d mem accesses\n",
		st.Cache.Loads, st.Cache.Stores,
		100*float64(st.Cache.L1Hits)/float64(max64(st.Cache.Loads, 1)), st.Cache.MemAccesses)
}

// printNativeStats reports a native-runtime (-backend rt*) run: the
// engine executes guest tasks on host goroutines, so the meaningful
// numbers are wall-clock and speculation counters, not cycles.
func printNativeStats(w io.Writer, app string, st core.Stats) {
	fmt.Fprintf(w, "%s on %d-worker %s runtime (verified)\n", app, st.Cores, st.Backend)
	fmt.Fprintf(w, "  wall time         %12.3f ms\n", float64(st.WallNS)/1e6)
	fmt.Fprintf(w, "  commits           %12d\n", st.Commits)
	fmt.Fprintf(w, "  aborts            %12d\n", st.Aborts)
	fmt.Fprintf(w, "  enqueues          %12d (dequeues %d)\n", st.Enqueues, st.Dequeues)
	if st.WallNS > 0 {
		fmt.Fprintf(w, "  throughput        %12.0f committed tasks/s\n",
			float64(st.Commits)/(float64(st.WallNS)/1e9))
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
