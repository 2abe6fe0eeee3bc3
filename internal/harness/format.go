package harness

import (
	"fmt"
	"io"
	"strings"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/noc"
)

// PrintTable1 formats Table 1 the way the paper lays it out.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Maximum achievable parallelism and task characteristics\n")
	fmt.Fprintf(w, "%-22s", "Application")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s", r.App)
	}
	fmt.Fprintln(w)
	line := func(label string, f func(Table1Row) string) {
		fmt.Fprintf(w, "%-22s", label)
		for _, r := range rows {
			fmt.Fprintf(w, "%10s", f(r))
		}
		fmt.Fprintln(w)
	}
	line("Max parallelism", func(r Table1Row) string { return fmt.Sprintf("%.0fx", r.MaxParallelism) })
	line("Parallelism w=1K", func(r Table1Row) string { return fmt.Sprintf("%.0fx", r.Window1K) })
	line("Parallelism w=64", func(r Table1Row) string { return fmt.Sprintf("%.0fx", r.Window64) })
	line("Instrs mean", func(r Table1Row) string { return fmt.Sprintf("%.0f", r.Instrs.Mean) })
	line("Instrs 90th", func(r Table1Row) string { return fmt.Sprintf("%d", r.Instrs.P90) })
	line("Reads mean", func(r Table1Row) string { return fmt.Sprintf("%.1f", r.Reads.Mean) })
	line("Reads 90th", func(r Table1Row) string { return fmt.Sprintf("%d", r.Reads.P90) })
	line("Writes mean", func(r Table1Row) string { return fmt.Sprintf("%.2f", r.Writes.Mean) })
	line("Writes 90th", func(r Table1Row) string { return fmt.Sprintf("%d", r.Writes.P90) })
	line("Max TLS parallelism", func(r Table1Row) string { return fmt.Sprintf("%.2fx", r.MaxTLS) })
}

// PrintTable2 formats the hardware cost table for a configuration.
func PrintTable2(w io.Writer, cfg core.Config) {
	fmt.Fprintf(w, "Table 2: Task unit structure sizes and estimated areas (per tile)\n")
	fmt.Fprintf(w, "%-24s %8s %12s %10s %12s\n", "Structure", "Entries", "Entry size", "Size", "Est. area")
	for _, r := range cfg.CostModel() {
		fmt.Fprintf(w, "%-24s %8d %12s %9.2fKB %9.3fmm2\n", r.Name, r.Entries, r.EntryDesc, r.SizeKB, r.AreaMM2)
	}
	perTile, perChip := cfg.TotalAreaMM2()
	fmt.Fprintf(w, "Total: %.2fmm2 per tile, %.1fmm2 per %d-tile chip\n", perTile, perChip, cfg.Tiles)
}

// PrintScaling formats Fig 11 + Fig 12 series for one application.
func PrintScaling(w io.Writer, r ScalingResult) {
	fmt.Fprintf(w, "%s:\n", r.App)
	fmt.Fprintf(w, "  %-28s", "cores")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%9d", p.Cores)
	}
	fmt.Fprintln(w)
	series := func(label string, vals []float64) {
		fmt.Fprintf(w, "  %-28s", label)
		for _, v := range vals {
			if v == 0 {
				fmt.Fprintf(w, "%9s", "-")
			} else {
				fmt.Fprintf(w, "%8.1fx", v)
			}
		}
		fmt.Fprintln(w)
	}
	series("Fig11 self-relative", r.SelfRelative())
	series("Fig12 Swarm vs serial", r.VsSerial())
	series("Fig12 SW-parallel vs serial", r.ParallelVsSerial())
}

// PrintFig13 formats the warehouse sweep.
func PrintFig13(w io.Writer, pts []SiloWarehousePoint, cores int) {
	fmt.Fprintf(w, "Fig 13: silo speedup vs TPC-C warehouses (%d cores)\n", cores)
	fmt.Fprintf(w, "%-12s %12s %12s\n", "warehouses", "Swarm", "SW-only")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12d %11.1fx %11.1fx\n", p.Warehouses, p.SwarmSpeedup, p.ParallelSpeedup)
	}
}

// PrintFig14 formats the aggregate core-cycle breakdown for one app across
// core counts (normalized to the 1-core total, like the paper).
func PrintFig14(w io.Writer, app string, points []ScalingPoint) {
	fmt.Fprintf(w, "%s: aggregate core cycles (normalized to 1-core total)\n", app)
	fmt.Fprintf(w, "  %-8s %10s %10s %10s %10s %10s\n", "cores", "committed", "aborted", "spill", "stall", "total")
	var base float64
	for i, p := range points {
		st := p.Stats
		tot := float64(st.TotalCoreCycles())
		if i == 0 {
			base = tot
		}
		n := func(v uint64) string { return fmt.Sprintf("%.3f", float64(v)/base) }
		fmt.Fprintf(w, "  %-8d %10s %10s %10s %10s %10s\n", p.Cores,
			n(st.CommittedCycles), n(st.AbortedCycles), n(st.SpillCycles), n(st.StallCycles), n(st.TotalCoreCycles()))
	}
}

// PrintFig15 formats average queue occupancies.
func PrintFig15(w io.Writer, results []ScalingResult) {
	fmt.Fprintf(w, "Fig 15: average queue occupancies (largest machine)\n")
	fmt.Fprintf(w, "%-8s %12s %12s\n", "app", "task queue", "commit q")
	for _, r := range results {
		st := r.Points[len(r.Points)-1].Stats
		fmt.Fprintf(w, "%-8s %12.0f %12.0f\n", r.App, st.AvgTaskQueueOcc, st.AvgCommitQueueOcc)
	}
}

// PrintFig16 formats per-tile NoC injection rates by class.
func PrintFig16(w io.Writer, results []ScalingResult) {
	fmt.Fprintf(w, "Fig 16: NoC injection rate per tile (GB/s at 2GHz, largest machine)\n")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %10s\n", "app", "mem", "enqueue", "abort", "gvt", "total")
	for _, r := range results {
		st := r.Points[len(r.Points)-1].Stats
		var tot float64
		vals := make([]float64, noc.NumClasses)
		for c := noc.Class(0); c < noc.NumClasses; c++ {
			vals[c] = st.TrafficGBps(c)
			tot += vals[c]
		}
		fmt.Fprintf(w, "%-8s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			r.App, vals[noc.ClassMem], vals[noc.ClassEnqueue], vals[noc.ClassAbort], vals[noc.ClassGVT], tot)
	}
}

// PrintSweep formats a sensitivity sweep (Fig 17a/b, GVT period).
func PrintSweep(w io.Writer, title string, apps []string, pts []SweepPoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s", "config")
	for _, a := range apps {
		fmt.Fprintf(w, "%9s", a)
	}
	fmt.Fprintln(w)
	for _, p := range pts {
		fmt.Fprintf(w, "%-12s", p.Label)
		for _, v := range p.Perf {
			fmt.Fprintf(w, "%8.2fx", v)
		}
		fmt.Fprintln(w)
	}
}

// PrintPhases formats the phased-workload sweep: one row per (app, cores,
// phase), with the phase's share of the session's cycles.
func PrintPhases(w io.Writer, pts []PhasePoint) {
	fmt.Fprintf(w, "phased sessions: per-phase cycles, commits and occupancy at quiescent points\n")
	fmt.Fprintf(w, "%-9s %6s %7s %10s %9s %8s %8s %8s %8s\n",
		"app", "cores", "phase", "cycles", "share", "commits", "aborts", "tq_occ", "cq_occ")
	// Share is the phase's fraction of its session's total cycles: the
	// session's total is the last phase's cumulative count.
	type key struct {
		app   string
		cores int
	}
	totals := map[key]uint64{}
	for _, p := range pts {
		k := key{p.App, p.Cores}
		if c := p.Stats.Cumulative.Cycles; c > totals[k] {
			totals[k] = c
		}
	}
	for _, p := range pts {
		ph := p.Stats
		share := ratio(float64(ph.Cycles), float64(totals[key{p.App, p.Cores}]))
		fmt.Fprintf(w, "%-9s %6d %7d %10d %8.1f%% %8d %8d %8.1f %8.1f\n",
			p.App, p.Cores, ph.Phase, ph.Cycles, 100*share, ph.Commits, ph.Aborts,
			ph.AvgTaskQueueOcc, ph.AvgCommitQueueOcc)
	}
}

// PrintMapperSweep formats the task-mapping policy sweep: per-app speedup
// over the random mapper plus the placement diagnostics behind it.
func PrintMapperSweep(w io.Writer, cores int, pts []MapperPoint) {
	fmt.Fprintf(w, "task-mapping policies at %d cores (speedup vs random; NoC = total injected bytes)\n", cores)
	fmt.Fprintf(w, "%-11s %-8s %12s %8s %10s %12s %7s\n",
		"mapper", "app", "cycles", "speedup", "aborts", "noc_bytes", "imbal")
	for _, p := range pts {
		fmt.Fprintf(w, "%-11s %-8s %12d %7.2fx %10d %12d %7.2f\n",
			p.Mapper, p.App, p.Cycles, p.Speedup, p.Aborts, p.NoCBytes, p.Imbalance)
	}
}

// PrintTable5 formats the idealization study.
func PrintTable5(w io.Writer, rows []Table5Row, maxCores int) {
	fmt.Fprintf(w, "Table 5: gmean speedups with progressive idealizations\n")
	fmt.Fprintf(w, "%-24s %16s %16s %16s\n", "Speedups",
		"1c vs 1c-base", fmt.Sprintf("%dc vs 1c-base", maxCores), fmt.Sprintf("%dc vs 1c", maxCores))
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %15.1fx %15.1fx %15.1fx\n", r.Config, r.OneCore, r.SixtyFour, r.SelfRelative)
	}
}

// PrintFig18 renders the astar trace: per-tile cycle breakdowns, queue
// lengths and commit/abort counts over time.
func PrintFig18(w io.Writer, st core.Stats, maxSamples int) {
	fmt.Fprintf(w, "Fig 18: astar execution trace (16 cores, 4 tiles, 500-cycle samples)\n")
	fmt.Fprintf(w, "%-10s", "cycle")
	for t := 0; t < st.Tiles; t++ {
		fmt.Fprintf(w, "  | tile%d: wrk spl stl  tq  cq  com ab", t)
	}
	fmt.Fprintln(w)
	samples := st.Trace
	if maxSamples > 0 && len(samples) > maxSamples {
		samples = samples[:maxSamples]
	}
	for _, s := range samples {
		fmt.Fprintf(w, "%-10d", s.Cycle)
		for _, ts := range s.Tiles {
			tot := ts.Worker + ts.Spill + ts.Stall
			pct := func(v uint64) int {
				if tot == 0 {
					return 0
				}
				return int(100 * v / tot)
			}
			fmt.Fprintf(w, "  | %10d%%%3d%%%3d%% %4d%4d %4d%3d",
				pct(ts.Worker), pct(ts.Spill), pct(ts.Stall), ts.TaskQ, ts.CommitQ, ts.Commits, ts.Aborts)
		}
		fmt.Fprintln(w)
	}
	if len(st.Trace) > len(samples) {
		fmt.Fprintf(w, "... (%d more samples)\n", len(st.Trace)-len(samples))
	}
}

// AppNames lists the suite's benchmark names.
func (s *Suite) AppNames() []string {
	out := make([]string, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		out[i] = b.Name()
	}
	return out
}

// Banner returns a header line for experiment output.
func Banner(title string) string {
	return fmt.Sprintf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
