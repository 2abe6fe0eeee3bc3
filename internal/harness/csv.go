package harness

import (
	"fmt"
	"io"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/noc"
)

// CSV exporters: plot-ready data files for every figure (the paper's
// figures are line/stacked-bar charts; these emit their exact series).

// StatsCSVHeader is the column list of single-run stats rows: the shared
// machine-readable result format of `swarmsim -csv` and swarmd's
// GET /jobs/{id}/csv, which lets the CI smoke test diff the daemon's
// answer against the one-shot CLI byte for byte.
const StatsCSVHeader = "app,cores,cycles,commits,aborts,spilled,nacks,enqueues,dequeues," +
	"committed_cycles,aborted_cycles,spill_cycles,stall_cycles,taskq_occ,commitq_occ," +
	"bloom_checks,vt_compares,traffic_bytes,mapper,backend,wall_ns"

// StatsCSVRow formats one run as a StatsCSVHeader row (no newline). The
// trailing backend columns name the engine and carry the native runtimes'
// wall-clock time (wall_ns is zero under the simulator, as cycle columns
// are under the native backends).
func StatsCSVRow(app string, st core.Stats) string {
	return fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%s,%s,%d",
		app, st.Cores, st.Cycles, st.Commits, st.Aborts, st.SpilledTasks, st.NACKs,
		st.Enqueues, st.Dequeues,
		st.CommittedCycles, st.AbortedCycles, st.SpillCycles, st.StallCycles,
		st.AvgTaskQueueOcc, st.AvgCommitQueueOcc,
		st.BloomChecks, st.VTCompares, st.TotalTrafficBytes(), st.Mapper,
		st.Backend, st.WallNS)
}

// WriteStatsCSV emits a single run as header plus one row.
func WriteStatsCSV(w io.Writer, app string, st core.Stats) error {
	_, err := fmt.Fprintf(w, "%s\n%s\n", StatsCSVHeader, StatsCSVRow(app, st))
	return err
}

// WriteScalingCSV emits Fig 11/12 series: one row per (app, cores).
func WriteScalingCSV(w io.Writer, results []ScalingResult) error {
	if _, err := fmt.Fprintln(w, "app,cores,swarm_cycles,serial_cycles,parallel_cycles,self_speedup,vs_serial,parallel_vs_serial"); err != nil {
		return err
	}
	for _, r := range results {
		self := r.SelfRelative()
		vs := r.VsSerial()
		pv := r.ParallelVsSerial()
		for i, p := range r.Points {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.3f,%.3f,%.3f\n",
				r.App, p.Cores, p.SwarmCycles, p.SerialCycles, p.ParallelCycles,
				self[i], vs[i], pv[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteBreakdownCSV emits Fig 14 series: normalized cycle breakdowns.
func WriteBreakdownCSV(w io.Writer, results []ScalingResult) error {
	if _, err := fmt.Fprintln(w, "app,cores,committed,aborted,spill,stall"); err != nil {
		return err
	}
	for _, r := range results {
		if len(r.Points) == 0 {
			continue
		}
		base := float64(r.Points[0].Stats.TotalCoreCycles())
		for _, p := range r.Points {
			st := p.Stats
			if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%.4f,%.4f,%.4f\n",
				r.App, p.Cores,
				ratio(float64(st.CommittedCycles), base), ratio(float64(st.AbortedCycles), base),
				ratio(float64(st.SpillCycles), base), ratio(float64(st.StallCycles), base)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTrafficCSV emits Fig 16 series: per-tile GB/s by message class.
func WriteTrafficCSV(w io.Writer, results []ScalingResult) error {
	if _, err := fmt.Fprintln(w, "app,mem_gbps,enqueue_gbps,abort_gbps,gvt_gbps"); err != nil {
		return err
	}
	for _, r := range results {
		if len(r.Points) == 0 {
			continue
		}
		st := r.Points[len(r.Points)-1].Stats
		if _, err := fmt.Fprintf(w, "%s,%.4f,%.4f,%.4f,%.4f\n", r.App,
			st.TrafficGBps(noc.ClassMem), st.TrafficGBps(noc.ClassEnqueue),
			st.TrafficGBps(noc.ClassAbort), st.TrafficGBps(noc.ClassGVT)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMapperCSV emits the task-mapping sweep: one row per (mapper, app).
func WriteMapperCSV(w io.Writer, pts []MapperPoint) error {
	if _, err := fmt.Fprintln(w, "mapper,app,cycles,speedup_vs_random,aborts,noc_bytes,taskq_imbalance"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f,%d,%d,%.3f\n",
			p.Mapper, p.App, p.Cycles, p.Speedup, p.Aborts, p.NoCBytes, p.Imbalance); err != nil {
			return err
		}
	}
	return nil
}

// WritePhasesCSV emits the phased-workload sweep: one row per (app,
// cores, phase), counters as phase deltas plus the cumulative cycle count
// at the phase's end.
func WritePhasesCSV(w io.Writer, pts []PhasePoint) error {
	if _, err := fmt.Fprintln(w, "app,cores,phase,start_cycle,end_cycle,phase_cycles,commits,aborts,enqueues,spilled,"+
		"committed_cycles,aborted_cycles,spill_cycles,stall_cycles,taskq_occ,commitq_occ,traffic_bytes,cum_cycles,cum_commits"); err != nil {
		return err
	}
	for _, p := range pts {
		ph := p.Stats
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d\n",
			p.App, p.Cores, ph.Phase, ph.StartCycle, ph.EndCycle, ph.Cycles,
			ph.Commits, ph.Aborts, ph.Enqueues, ph.SpilledTasks,
			ph.CommittedCycles, ph.AbortedCycles, ph.SpillCycles, ph.StallCycles,
			ph.AvgTaskQueueOcc, ph.AvgCommitQueueOcc, ph.TotalTrafficBytes(),
			ph.Cumulative.Cycles, ph.Cumulative.Commits); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceCSV emits the Fig 18 time series: one row per (sample, tile).
func WriteTraceCSV(w io.Writer, st core.Stats) error {
	if _, err := fmt.Fprintln(w, "cycle,tile,worker_cycles,spill_cycles,stall_cycles,task_queue,commit_queue,commits,aborts"); err != nil {
		return err
	}
	for _, s := range st.Trace {
		for ti, t := range s.Tiles {
			if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				s.Cycle, ti, t.Worker, t.Spill, t.Stall, t.TaskQ, t.CommitQ, t.Commits, t.Aborts); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteTable1CSV emits the limit study as CSV.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintln(w, "app,max_parallelism,window_1k,window_64,instrs_mean,instrs_p90,reads_mean,reads_p90,writes_mean,writes_p90,max_tls"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%.1f,%.1f,%.1f,%.1f,%d,%.2f,%d,%.2f,%d,%.2f\n",
			r.App, r.MaxParallelism, r.Window1K, r.Window64,
			r.Instrs.Mean, r.Instrs.P90, r.Reads.Mean, r.Reads.P90,
			r.Writes.Mean, r.Writes.P90, r.MaxTLS); err != nil {
			return err
		}
	}
	return nil
}
