package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

func TestCSVExports(t *testing.T) {
	s := tinySuite()
	sssp := tinySuite()
	sssp.Benchmarks = sssp.Benchmarks[1:2]
	results, err := sssp.ScalingAll([]int{1, 8})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteScalingCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("scaling csv lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "sssp,1,") {
		t.Fatalf("unexpected first row %q", lines[1])
	}

	buf.Reset()
	if err := WriteBreakdownCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "committed") {
		t.Fatal("breakdown csv missing header")
	}

	buf.Reset()
	if err := WriteTrafficCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 2 {
		t.Fatal("traffic csv should have header + one app row")
	}

	buf.Reset()
	st, err := s.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceCSV(&buf, st); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(rows) < 1+4 { // header + >= 1 sample x 4 tiles
		t.Fatalf("trace csv too short: %d rows", len(rows))
	}

	buf.Reset()
	if err := WriteTable1CSV(&buf, s.Table1(200)); err != nil {
		t.Fatal(err)
	}
	if got, want := len(strings.Split(strings.TrimSpace(buf.String()), "\n")), 1+len(bench.AppNames()); got != want {
		t.Fatalf("table1 csv has %d rows, want header + %d registered apps", got, want-1)
	}
}

// TestCSVNoNaNOnEmptyApp runs an app whose Setup enqueues nothing — the
// measured region is empty and the serial/parallel baselines report zero
// cycles — and requires every exporter to emit finite numbers: a zero
// denominator must become 0 in the CSV, never NaN or Inf.
func TestCSVNoNaNOnEmptyApp(t *testing.T) {
	m, err := core.NewMachine(core.DefaultConfig(4), &core.Program{Setup: func(m *core.Machine) {}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Commits != 0 {
		t.Fatalf("empty app committed %d tasks", st.Commits)
	}

	// One real (empty) run plus a fully zeroed degenerate point, covering
	// both the zero-serial and zero-total-cycle denominators; a pointless
	// result covers the zero-points case.
	results := []ScalingResult{
		{
			App: "empty",
			Points: []ScalingPoint{
				{Cores: 4, SwarmCycles: st.Cycles, SerialCycles: 0, ParallelCycles: 0, Stats: st},
				{Cores: 8, SwarmCycles: 0, SerialCycles: 0, ParallelCycles: 0, Stats: core.Stats{}},
			},
		},
		{App: "pointless"},
	}

	var buf bytes.Buffer
	for name, write := range map[string]func() error{
		"scaling":   func() error { return WriteScalingCSV(&buf, results) },
		"breakdown": func() error { return WriteBreakdownCSV(&buf, results) },
		"traffic":   func() error { return WriteTrafficCSV(&buf, results) },
	} {
		buf.Reset()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("%s csv emitted NaN/Inf for an empty app:\n%s", name, out)
		}
	}
}

// TestStatsCSVFormat pins the single-run CSV format shared by
// `swarmsim -csv` and swarmd's GET /jobs/{id}/csv: the header's column
// count matches every row, a real run round-trips with the app name and
// mapper in the right columns, and WriteStatsCSV is exactly header+row.
// CI diffs daemon output against the CLI byte for byte; this test is the
// package-local statement of the same contract.
func TestStatsCSVFormat(t *testing.T) {
	cfg := core.DefaultConfig(4)
	b, err := bench.New("bfs", bench.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}

	row := StatsCSVRow("bfs", st)
	hcols := strings.Split(StatsCSVHeader, ",")
	rcols := strings.Split(row, ",")
	if len(hcols) != len(rcols) {
		t.Fatalf("header has %d columns, row has %d:\n%s\n%s", len(hcols), len(rcols), StatsCSVHeader, row)
	}
	if rcols[0] != "bfs" || rcols[1] != "4" {
		t.Fatalf("app/cores columns: %q", rcols[:2])
	}
	if got := rcols[len(rcols)-3]; got != cfg.Mapper {
		t.Fatalf("mapper column = %q, want %q", got, cfg.Mapper)
	}
	// The trailing backend columns: a simulator run names itself and
	// leaves the native-runtime metric (wall_ns) zero.
	if got := rcols[len(rcols)-2]; got != "sim" {
		t.Fatalf("backend column = %q, want %q", got, "sim")
	}
	if rcols[len(rcols)-1] != "0" {
		t.Fatalf("wall_ns column = %q, want zero under the simulator", rcols[len(rcols)-1])
	}
	if rcols[2] != fmt.Sprint(st.Cycles) || rcols[3] != fmt.Sprint(st.Commits) {
		t.Fatalf("cycles/commits columns: %q, stats %d/%d", rcols[2:4], st.Cycles, st.Commits)
	}
	if strings.Contains(row, "NaN") || strings.Contains(row, "Inf") {
		t.Fatalf("row has non-finite fields: %s", row)
	}

	var buf bytes.Buffer
	if err := WriteStatsCSV(&buf, "bfs", st); err != nil {
		t.Fatal(err)
	}
	if want := StatsCSVHeader + "\n" + row + "\n"; buf.String() != want {
		t.Fatalf("WriteStatsCSV:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestMapperCSV covers the mapper-sweep exporter's shape.
func TestMapperCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []MapperPoint{
		{Mapper: "random", App: "bfs", Cycles: 100, Speedup: 1.0, Aborts: 3, NoCBytes: 500},
		{Mapper: "hint", App: "bfs", Cycles: 90, Speedup: 1.111, Aborts: 2, NoCBytes: 350, Imbalance: 1.5},
	}
	if err := WriteMapperCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(pts) {
		t.Fatalf("mapper csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "hint,bfs,90,1.111,") {
		t.Fatalf("unexpected row %q", lines[2])
	}
}
