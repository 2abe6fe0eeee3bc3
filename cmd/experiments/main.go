// experiments regenerates every table and figure of the paper's evaluation
// (§6) on scaled-down inputs: Tables 1, 2, 4, 5 and Figures 11-18, plus
// the §6.3/§6.4 sensitivity studies. See EXPERIMENTS.md for the
// paper-vs-measured record.
//
// Independent simulations fan out over -workers host goroutines; results
// on stdout are byte-identical for every worker count (progress, ETA and
// timing lines go to stderr).
//
// Usage:
//
//	experiments                     # small scale, cores 1..16
//	experiments -scale medium -maxcores 64
//	experiments -only fig12,fig13 -workers 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/harness"
)

func main() {
	scaleF := flag.String("scale", "small", "input scale: tiny, small, medium, large")
	maxCores := flag.Int("maxcores", 16, "largest machine (use 64 for the paper's setup)")
	only := flag.String("only", "", "comma-separated subset: table1,table2,table4,table5,fig11-fig18,gvt,canary,mappers,phases")
	mapper := flag.String("mapper", "",
		"task-mapping policy for every Swarm run ("+strings.Join(core.MapperNames(), ", ")+"); default random")
	backendF := flag.String("backend", "",
		"execution backend for every Swarm run ("+strings.Join(core.BackendNames(), ", ")+"); default sim. "+
			"Native rt backends report zero cycles, so cycle-based figures degenerate")
	csvDir := flag.String("csv", "", "also write plot-ready CSV files to this directory")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent simulations on the host (1 = sequential; results are identical)")
	quiet := flag.Bool("quiet", false, "suppress per-task progress lines on stderr")
	flag.Parse()

	// Validate every selector flag up front against the registries (a bad
	// value fails here, with the valid options, instead of minutes into
	// the sweep).
	scale, err := bench.ParseScale(*scaleF)
	if err != nil {
		log.Fatal(err)
	}
	if err := harness.ValidateMapper(*mapper); err != nil {
		log.Fatal(err)
	}
	if err := harness.ValidateCores(*maxCores); err != nil {
		log.Fatal(err)
	}
	if err := harness.ValidateBackend(*backendF); err != nil {
		log.Fatal(err)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	enabled := func(k string) bool { return len(want) == 0 || want[k] }

	out := os.Stdout
	s := harness.NewSuite(scale)
	s.SetWorkers(*workers)
	s.SetMapper(*mapper)
	s.SetBackend(*backendF)
	if !*quiet {
		s.SetProgress(func(done, total int, label string, eta time.Duration) {
			if eta >= time.Second {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s (eta %s)\n", done, total, label, eta.Round(time.Second))
			} else {
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", done, total, label)
			}
		})
	}
	coreCounts := coreSweep(*maxCores)
	fmt.Fprintf(out, "Swarm reproduction: scale=%s, cores=%v\n", scale, coreCounts)
	fmt.Fprintf(os.Stderr, "running with %d workers\n", s.Workers())

	// step prints the banner and runs one experiment; a failure is
	// recorded and reported but does not abort the sweep — later tables
	// and figures still run, and the process exits non-zero once at the
	// end. (Wall-clock timing goes to stderr so stdout stays
	// byte-identical across runs and worker counts.)
	var failures []string
	step := func(title string, fn func() error) {
		fmt.Fprint(out, harness.Banner(title))
		start := time.Now()
		if err := fn(); err != nil {
			failures = append(failures, title)
			fmt.Fprintf(os.Stderr, "ERROR: %s failed: %v\n", title, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: [%.1fs]\n", title, time.Since(start).Seconds())
	}

	if enabled("table1") {
		step("Table 1: parallelism limit study", func() error {
			rows := s.Table1(0)
			harness.PrintTable1(out, rows)
			return writeCSV(*csvDir, "table1.csv", func(w *os.File) error {
				return harness.WriteTable1CSV(w, rows)
			})
		})
	}
	if enabled("table2") {
		step("Table 2: task unit hardware costs", func() error {
			harness.PrintTable2(out, core.DefaultConfig(64))
			return nil
		})
	}

	var results []harness.ScalingResult
	needScaling := enabled("fig11") || enabled("fig12") || enabled("fig14") ||
		enabled("fig15") || enabled("fig16") || enabled("table4")
	if needScaling {
		step("Fig 11/12: scaling (Swarm, serial, software-parallel)", func() error {
			var err error
			results, err = s.ScalingAll(coreCounts)
			if err != nil {
				return err
			}
			for _, r := range results {
				harness.PrintScaling(out, r)
			}
			if err := writeCSV(*csvDir, "scaling.csv", func(w *os.File) error {
				return harness.WriteScalingCSV(w, results)
			}); err != nil {
				return err
			}
			if err := writeCSV(*csvDir, "breakdown.csv", func(w *os.File) error {
				return harness.WriteBreakdownCSV(w, results)
			}); err != nil {
				return err
			}
			return writeCSV(*csvDir, "traffic.csv", func(w *os.File) error {
				return harness.WriteTrafficCSV(w, results)
			})
		})
	}
	if enabled("table4") {
		step("Table 4: serial run-times", func() error {
			fmt.Fprintf(out, "%-8s %16s\n", "app", "serial cycles")
			for _, b := range s.Benchmarks {
				cyc, err := s.Serial(b, 1)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "%-8s %16d\n", b.Name(), cyc)
			}
			return nil
		})
	}
	if enabled("fig14") {
		step("Fig 14: aggregate core-cycle breakdowns", func() error {
			for _, r := range results {
				harness.PrintFig14(out, r.App, r.Points)
			}
			return nil
		})
	}
	if enabled("fig15") {
		step("Fig 15: queue occupancies", func() error {
			harness.PrintFig15(out, results)
			return nil
		})
	}
	if enabled("fig16") {
		step("Fig 16: NoC traffic", func() error {
			harness.PrintFig16(out, results)
			return nil
		})
	}
	if enabled("fig13") {
		step("Fig 13: silo warehouse sensitivity", func() error {
			txns := map[bench.Scale]int{bench.ScaleTiny: 60, bench.ScaleSmall: 200, bench.ScaleMedium: 800, bench.ScaleLarge: 800}[scale]
			pts, err := s.Fig13([]int{16, 4, 1}, *maxCores, txns)
			if err != nil {
				return err
			}
			harness.PrintFig13(out, pts, *maxCores)
			return nil
		})
	}
	if enabled("table5") {
		step("Table 5: idealization study", func() error {
			rows, err := s.Table5(*maxCores)
			if err != nil {
				return err
			}
			harness.PrintTable5(out, rows, *maxCores)
			return nil
		})
	}
	if enabled("fig17a") {
		step("Fig 17(a): commit queue size sweep", func() error {
			totals := []int{}
			for _, per := range []int{2, 4, 8, 16, 32} {
				totals = append(totals, per**maxCores)
			}
			totals = append(totals, 0) // unbounded
			pts, err := s.CommitQueueSweep(*maxCores, totals)
			if err != nil {
				return err
			}
			harness.PrintSweep(out, "performance vs default (1.0) by aggregate commit queue entries:", s.AppNames(), pts)
			return nil
		})
	}
	if enabled("fig17b") {
		step("Fig 17(b): Bloom filter sweep", func() error {
			pts, err := s.BloomSweep(*maxCores, []bloom.Config{
				{Bits: 256, Ways: 4},
				{Bits: 1024, Ways: 4},
				{Bits: 2048, Ways: 8},
				{Precise: true},
			})
			if err != nil {
				return err
			}
			harness.PrintSweep(out, "performance vs default (1.0) by signature configuration:", s.AppNames(), pts)
			return nil
		})
	}
	if enabled("gvt") {
		step("§6.4: GVT update period sweep", func() error {
			pts, err := s.GVTSweep(*maxCores, []uint64{50, 100, 200, 400, 800})
			if err != nil {
				return err
			}
			harness.PrintSweep(out, "performance vs default (1.0) by GVT period:", s.AppNames(), pts)
			return nil
		})
	}
	if enabled("canary") {
		step("§6.3: canary virtual time precision", func() error {
			red, sp, err := s.CanaryStudy(*maxCores)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "per-line canaries: %.1f%% fewer global checks, gmean speedup %.3fx\n", 100*red, sp)
			return nil
		})
	}
	if enabled("mappers") {
		step("task-mapping policy sweep", func() error {
			pts, err := s.MapperSweep(*maxCores, core.MapperNames())
			if err != nil {
				return err
			}
			harness.PrintMapperSweep(out, *maxCores, pts)
			return writeCSV(*csvDir, "mappers.csv", func(w *os.File) error {
				return harness.WriteMapperCSV(w, pts)
			})
		})
	}
	if enabled("phases") {
		step("phased sessions: per-phase statistics of multi-phase workloads", func() error {
			pts, err := s.PhasedRuns(coreCounts)
			if err != nil {
				return err
			}
			harness.PrintPhases(out, pts)
			return writeCSV(*csvDir, "phases.csv", func(w *os.File) error {
				return harness.WritePhasesCSV(w, pts)
			})
		})
	}
	if enabled("fig18") {
		step("Fig 18: astar execution trace (16 cores, 4 tiles)", func() error {
			st, err := s.Fig18()
			if err != nil {
				return err
			}
			harness.PrintFig18(out, st, 30)
			return writeCSV(*csvDir, "trace.csv", func(w *os.File) error {
				return harness.WriteTraceCSV(w, st)
			})
		})
	}

	if len(failures) > 0 {
		log.Fatalf("%d experiment step(s) failed: %s", len(failures), strings.Join(failures, "; "))
	}
}

// writeCSV writes one CSV artifact when -csv is set.
func writeCSV(dir, name string, fn func(*os.File) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + name)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func coreSweep(maxCores int) []int {
	out := []int{1}
	for c := 2; c <= maxCores; c *= 2 {
		out = append(out, c)
	}
	return out
}
