package harness

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/swarm-sim/swarm/internal/bench"
)

// TestPoolCollectsByIndex checks that results land in input order no
// matter which worker finishes first.
func TestPoolCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		p := NewPool(workers)
		out := make([]int, 50)
		err := p.Run(len(out), nil, func(i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestPoolLowestIndexError checks the deterministic error contract: with
// several failing tasks, the lowest-index error is reported.
func TestPoolLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		err := p.Run(20, nil, func(i int) error {
			if i == 7 || i == 13 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: err = %v, want task 7's", workers, err)
		}
	}
}

// TestPoolProgress checks that every task reports exactly once, done
// counts are monotone, and labels come through.
func TestPoolProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var calls int
		last := 0
		seen := map[string]bool{}
		p.SetProgress(func(done, total int, label string, _ time.Duration) {
			calls++
			if done != last+1 || total != 9 {
				t.Fatalf("workers=%d: progress (%d/%d) after (%d/9)", workers, done, total, last)
			}
			last = done
			seen[label] = true
		})
		if err := p.Run(9, func(i int) string { return fmt.Sprintf("task%d", i) },
			func(i int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if calls != 9 || len(seen) != 9 {
			t.Fatalf("workers=%d: %d progress calls over %d labels", workers, calls, len(seen))
		}
	}
}

// TestPoolZeroValueRejected checks that a zero-value Pool (never
// initialized via NewPool/SetWorkers, so workers == 0) fails loudly
// instead of spawning zero workers and silently running nothing.
func TestPoolZeroValueRejected(t *testing.T) {
	var p Pool
	ran := false
	err := p.Run(3, nil, func(int) error { ran = true; return nil })
	if err == nil {
		t.Fatal("zero-value Pool.Run returned nil, want a descriptive error")
	}
	if ran {
		t.Fatal("zero-value Pool ran tasks despite erroring")
	}
	if want := "harness: pool has 0 workers"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("err = %q, want it to mention %q", err, want)
	}
	// After SetWorkers the same Pool works.
	p.SetWorkers(2)
	if err := p.Run(3, nil, func(int) error { return nil }); err != nil {
		t.Fatalf("after SetWorkers: %v", err)
	}
}

// TestPoolWorkersDefault checks the NumCPU fallback.
func TestPoolWorkersDefault(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Fatal("workers < 1")
	}
	if got := NewPool(3).Workers(); got != 3 {
		t.Fatalf("workers = %d, want 3", got)
	}
}

// TestMemoSingleFlight checks the deduplicating cache: concurrent callers
// for one key share a single computation.
func TestMemoSingleFlight(t *testing.T) {
	var c Memo[int, int]
	var computed atomic.Int64
	p := NewPool(8)
	out := make([]int, 64)
	err := p.Run(len(out), nil, func(i int) error {
		v, _, err := c.Do(i%4, func() (int, error) {
			computed.Add(1)
			return (i % 4) * 10, nil
		})
		out[i] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 4 {
		t.Fatalf("computed %d times, want 4", got)
	}
	for i, v := range out {
		if v != (i%4)*10 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, _, err := c.Do(100, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
}

// renderEverything drives every parallelized sweep of a tiny suite and
// renders all tables, figures and CSV artifacts into one byte stream.
func renderEverything(t *testing.T, workers int) []byte {
	t.Helper()
	s := NewSuite(bench.ScaleTiny)
	s.SetWorkers(workers)
	var buf bytes.Buffer

	rows := s.Table1(0)
	PrintTable1(&buf, rows)
	if err := WriteTable1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}

	results, err := s.ScalingAll([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		PrintScaling(&buf, r)
		PrintFig14(&buf, r.App, r.Points)
	}
	PrintFig15(&buf, results)
	PrintFig16(&buf, results)
	for _, w := range []func(*bytes.Buffer, []ScalingResult) error{
		func(b *bytes.Buffer, r []ScalingResult) error { return WriteScalingCSV(b, r) },
		func(b *bytes.Buffer, r []ScalingResult) error { return WriteBreakdownCSV(b, r) },
		func(b *bytes.Buffer, r []ScalingResult) error { return WriteTrafficCSV(b, r) },
	} {
		if err := w(&buf, results); err != nil {
			t.Fatal(err)
		}
	}

	pts, err := s.Fig13([]int{2, 1}, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig13(&buf, pts, 4)

	t5, err := s.Table5(4)
	if err != nil {
		t.Fatal(err)
	}
	PrintTable5(&buf, t5, 4)

	cq, err := s.CommitQueueSweep(4, []int{16, 0})
	if err != nil {
		t.Fatal(err)
	}
	PrintSweep(&buf, "fig17a", s.AppNames(), cq)

	red, sp, err := s.CanaryStudy(4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "canary %.4f %.4f\n", red, sp)

	return buf.Bytes()
}

// TestParallelOutputByteIdentical is the scheduler's core guarantee: the
// full experiment pipeline renders byte-identical tables and CSV under
// any worker count. Run under -race this also exercises the concurrent
// paths of the suite caches and benchmark runners.
func TestParallelOutputByteIdentical(t *testing.T) {
	seq := renderEverything(t, 1)
	par := renderEverything(t, 4)
	if !bytes.Equal(seq, par) {
		a, b := string(seq), string(par)
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := max(0, i-80)
				t.Fatalf("outputs diverge at byte %d:\nworkers=1: %q\nworkers=4: %q",
					i, a[lo:min(len(a), i+80)], b[lo:min(len(b), i+80)])
			}
		}
		t.Fatalf("output lengths differ: %d vs %d", len(seq), len(par))
	}
}
