package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/core"
)

func tinySuite() *Suite { return NewSuite(bench.ScaleTiny) }

func TestTable1Runs(t *testing.T) {
	s := tinySuite()
	rows := s.Table1(0)
	if len(rows) != len(bench.AppNames()) {
		t.Fatalf("rows = %d, want one per registered app (%d)", len(rows), len(bench.AppNames()))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	out := buf.String()
	for _, app := range bench.AppNames() {
		if !strings.Contains(out, app) {
			t.Fatalf("table missing %s:\n%s", app, out)
		}
	}
	for _, r := range rows {
		if r.MaxParallelism < r.Window1K-0.01 || r.Window1K < r.Window64-0.01 {
			t.Errorf("%s: window parallelism not monotone (%0.1f/%0.1f/%0.1f)",
				r.App, r.MaxParallelism, r.Window1K, r.Window64)
		}
	}
}

func TestScalingShape(t *testing.T) {
	s := tinySuite()
	s.Benchmarks = s.Benchmarks[1:2] // sssp only, to bound test time
	rs, err := s.ScalingAll([]int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	self := r.SelfRelative()
	if self[0] != 1 {
		t.Fatalf("self-relative base = %.2f", self[0])
	}
	if self[2] <= self[0] {
		t.Fatalf("no scaling: %v", self)
	}
	var buf bytes.Buffer
	PrintScaling(&buf, r)
	PrintFig14(&buf, r.App, r.Points)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestFig13Shape(t *testing.T) {
	s := tinySuite()
	pts, err := s.Fig13([]int{4, 1}, 8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("points missing")
	}
	// The headline: with 1 warehouse, Swarm holds up much better than OCC.
	one := pts[1]
	if one.SwarmSpeedup < one.ParallelSpeedup {
		t.Errorf("1 warehouse: Swarm %.1fx should beat OCC %.1fx (Fig 13)",
			one.SwarmSpeedup, one.ParallelSpeedup)
	}
	var buf bytes.Buffer
	PrintFig13(&buf, pts, 8)
}

func TestTable5Idealizations(t *testing.T) {
	s := tinySuite()
	rows, err := s.Table5(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("want 3 variants")
	}
	if rows[0].OneCore < 0.99 || rows[0].OneCore > 1.01 {
		t.Fatalf("baseline 1c speedup = %.2f, want 1.0", rows[0].OneCore)
	}
	// Idealizations can only help at one core.
	if rows[2].OneCore < rows[0].OneCore-0.01 {
		t.Errorf("0-cycle memory slower than baseline at 1c? %v", rows)
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows, 8)
}

func TestCommitQueueSweepShape(t *testing.T) {
	s := NewSuite(bench.ScaleTiny)
	// Only sssp to bound time: fake a one-benchmark suite.
	s.Benchmarks = s.Benchmarks[1:2]
	pts, err := s.CommitQueueSweep(8, []int{16, 128, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny commit queues must not beat unbounded ones meaningfully.
	if pts[0].Perf[0] > pts[2].Perf[0]*1.15 {
		t.Errorf("16-entry commit queue (%.2f) outperforms unbounded (%.2f)?",
			pts[0].Perf[0], pts[2].Perf[0])
	}
	var buf bytes.Buffer
	PrintSweep(&buf, "Fig 17a", s.AppNames(), pts)
}

func TestBloomSweepShape(t *testing.T) {
	s := NewSuite(bench.ScaleTiny)
	s.Benchmarks = s.Benchmarks[5:6] // silo: largest footprints
	pts, err := s.BloomSweep(8, []bloom.Config{
		{Bits: 256, Ways: 4},
		{Bits: 2048, Ways: 8},
		{Precise: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Precise filters should not be meaningfully slower than 256-bit ones.
	if pts[2].Perf[0] < pts[0].Perf[0]*0.9 {
		t.Errorf("precise (%.2f) slower than 256b (%.2f)?", pts[2].Perf[0], pts[0].Perf[0])
	}
}

func TestGVTSweepRuns(t *testing.T) {
	s := NewSuite(bench.ScaleTiny)
	s.Benchmarks = s.Benchmarks[1:2]
	pts, err := s.GVTSweep(8, []uint64{50, 200, 800})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Perf[0] < 0.3 || p.Perf[0] > 3 {
			t.Errorf("gvt sweep wild swing at %s: %.2f", p.Label, p.Perf[0])
		}
	}
}

func TestCanaryStudyRuns(t *testing.T) {
	s := NewSuite(bench.ScaleTiny)
	s.Benchmarks = s.Benchmarks[1:3]
	red, sp, err := s.CanaryStudy(8)
	if err != nil {
		t.Fatal(err)
	}
	if red < -0.05 {
		t.Errorf("per-line canaries increased global checks? reduction=%.3f", red)
	}
	if sp < 0.8 || sp > 1.3 {
		t.Errorf("canary speedup %.2f out of the <1%% band the paper reports", sp)
	}
}

func TestFig18Trace(t *testing.T) {
	s := tinySuite()
	st, err := s.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	if st.Tiles != 4 {
		t.Fatalf("tiles = %d, want 4", st.Tiles)
	}
	var buf bytes.Buffer
	PrintFig18(&buf, st, 10)
	if !strings.Contains(buf.String(), "tile3") {
		t.Fatal("trace output missing tiles")
	}
}

func TestTable2Print(t *testing.T) {
	var buf bytes.Buffer
	PrintTable2(&buf, core.DefaultConfig(64))
	if !strings.Contains(buf.String(), "Order queue") {
		t.Fatal("table 2 incomplete")
	}
}

// TestSuiteBackendOverride proves SetBackend threads through the
// suite's machine configuration: a scaling run on the native runtime
// reports backend=rt stats with wall-clock instead of cycles, while
// the serial baseline column stays cycle-based.
func TestSuiteBackendOverride(t *testing.T) {
	s := tinySuite()
	s.Benchmarks = s.Benchmarks[1:2] // one app bounds time
	s.SetBackend("rt")
	s.SetWorkers(1)
	rs, err := s.ScalingAll([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	st := res.Points[0].Stats
	if st.Backend != "rt" {
		t.Fatalf("stats backend = %q, want rt", st.Backend)
	}
	if st.Cycles != 0 || st.WallNS == 0 || st.Commits == 0 {
		t.Errorf("rt stats: cycles=%d wallns=%d commits=%d, want 0/nonzero/nonzero",
			st.Cycles, st.WallNS, st.Commits)
	}
	if res.Points[0].SerialCycles == 0 {
		t.Error("serial baseline lost its cycle count under the backend override")
	}
}
