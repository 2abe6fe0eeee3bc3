package main

import (
	"errors"
	"math"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 0, false},
		{20, 50000, true},
		{99, 50000, true},
		{100, 90000, true},
		{999, 90000, true},
		{1000, 99000, true},
		{9999, 99000, true},
		{10000, 99900, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond %s", tc.n, tc.n-rank(tc.n, got), percentileName(got))
		}
	}
}

func TestSummarize(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	l := summarize(ms)
	if l.n != 1000 || l.p50 != 500 || !l.resolved || l.tailQ != 99000 || l.tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v; want n=1000 p50=500 p99=990", l)
	}
	if name := percentileName(l.tailQ); name != "p99" {
		t.Errorf("percentileName(99000) = %q", name)
	}
	if name := percentileName(99900); name != "p99.9" {
		t.Errorf("percentileName(99900) = %q", name)
	}
	if l := summarize(ms[:15]); l.resolved || l.n != 15 {
		t.Errorf("15 samples resolved a tail: %+v", l)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// TestRateSumsBeforeDividing pins the fold: total work over total time,
// not the mean of per-cell rates (which would read 66.7 here).
func TestRateSumsBeforeDividing(t *testing.T) {
	got := rate([]uint64{100, 100}, []int64{1e9, 3e9})
	if got != 50 {
		t.Fatalf("rate = %v, want 50", got)
	}
	if got := rate([]uint64{5}, []int64{0}); got != 0 {
		t.Errorf("rate with no time = %v, want 0", got)
	}
}

// TestSuiteRateUsesPerCellMedians folds hand-built passes: each cell's
// median time over the passes is summed, so one slow cell in one pass
// does not move the result.
func TestSuiteRateUsesPerCellMedians(t *testing.T) {
	s := newSuite([]*cell{{name: "a"}, {name: "b"}}, []int{0, 1},
		func(st core.Stats) uint64 { return st.Events }, nil)
	mk := func(aNS, bNS int64, scale float64) pass {
		return pass{ok: true, scale: scale, runs: []cellRun{
			{st: core.Stats{Events: 1000}, ns: aNS},
			{st: core.Stats{Events: 3000}, ns: bNS},
		}}
	}
	// The host ran the third pass at half speed: 2 s of wall time is 1 s
	// of reference time.
	ps := []pass{mk(1e9, 1e9, 1), mk(1e9, 9e9, 1), mk(6e9, 2e9, 0.5)}
	// Medians: a 1 s, b 1 s; 4000 events over 2 s.
	if got := s.rate(ps); got != 2000 {
		t.Fatalf("suite rate = %v, want 2000", got)
	}
	if got := s.rate(nil); got != 0 {
		t.Errorf("rate of no passes = %v", got)
	}
}

// byName returns the durations of the spans called name.
func byName(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func TestFillSelf(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 60, End: 70},  // disjoint
		{ID: 5, Parent: 1, Start: 90, End: 120}, // clipped at the parent's end
		{ID: 6, Parent: 4, Start: 61, End: 65},
	}
	fillSelf(spans)
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 30, 4: 10 - 4, 5: 30, 6: 4}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self = %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	var none *tracer
	if id := none.start(0, "x", "y"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	none.end(0, nil) // must not panic

	tr := newTracer()
	p := tr.start(0, "pass1", "pass")
	c := tr.start(p, "pass1/bfs", "cell")
	tr.end(c, map[string]float64{"events": 7})
	tr.end(p, nil)
	j := tr.record(0, "j000001", "job", tr.t0, tr.t0.Add(5))
	tr.record(j, "j000001", "poll", tr.t0.Add(1), tr.t0.Add(2))
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	if spans[1].Parent != p || spans[1].Counts["events"] != 7 || spans[1].Trace != "pass1/bfs" {
		t.Errorf("cell span = %+v", spans[1])
	}
	if spans[2].dur() != 5 || spans[2].Self != 4 || spans[3].Parent != j {
		t.Errorf("job spans = %+v", spans[2:])
	}
	if got := byName(spans, "poll"); len(got) != 1 || got[0] != 1 {
		t.Errorf("byName(poll) = %v", got)
	}
}

// TestFailuresAreCounted checks that a failed check is recorded against
// the attempted operations, reported in the result, and not fatal.
func TestFailuresAreCounted(t *testing.T) {
	s := newSuite([]*cell{{name: "a"}}, []int{0}, nil, func(ref, got core.Stats) error {
		if ref.Commits != got.Commits {
			return errors.New("commits differ")
		}
		return nil
	})
	rep := newReport()
	for _, commits := range []uint64{10, 10, 11, 10} {
		rep.tally.record("a", s.check(0, core.Stats{Commits: commits}))
	}
	rep.tally.record("job", errors.New("503"))
	if rep.tally.attempted != 5 || rep.tally.failed != 2 || len(rep.tally.errs) != 2 {
		t.Fatalf("tally = %+v; want 5 attempted, 2 failed", rep.tally)
	}
	if r := rep.tally.errorRate(); math.Abs(r-0.4) > 1e-12 {
		t.Errorf("error rate = %v, want 0.4", r)
	}
	var other tally
	other.record("x", nil)
	rep.tally.merge(other)
	if rep.tally.attempted != 6 || rep.tally.failed != 2 {
		t.Errorf("merged tally = %+v", rep.tally)
	}

	for _, c := range endToEnd {
		rep.add("m_"+c.name, c.unit, 1, 1)
		rep.alias[c.name] = "m_" + c.name
	}
	res, err := resultFor(rep, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 6 || res.Failed != 2 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	layer, err := resultFor(rep, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(layer.Metrics) != len(perLayer()) || layer.Metrics["rt.scaling_2v1"].Value != 0 {
		t.Errorf("per-layer result has %d metrics, rt.scaling_2v1 = %v", len(layer.Metrics), layer.Metrics["rt.scaling_2v1"])
	}
	delete(rep.alias, "setup_s")
	if _, err := resultFor(rep, false); err == nil {
		t.Error("a missing end-to-end metric was not an error")
	}
}

func TestRefScale(t *testing.T) {
	if got := refScale(refNS, passRefExp); got != 1 {
		t.Errorf("refScale at reference speed = %v", got)
	}
	// A host at half speed: its 2 s of wall time are 1 s of reference time
	// for a workload that follows the reference linearly, and less for one
	// that slows more steeply.
	if got := refScale(2*refNS, 1); got != 0.5 {
		t.Errorf("linear refScale at half speed = %v", got)
	}
	if got, want := refScale(2*refNS, 1.5), 1/(2*math.Sqrt2); math.Abs(got-want) > 1e-12 {
		t.Errorf("refScale at half speed, exponent 1.5 = %v, want %v", got, want)
	}
	if got := refScale(0, passRefExp); got != 0 {
		t.Errorf("refScale of no reading = %v", got)
	}
	if got := hostSpeed(); got <= 0 {
		t.Errorf("hostSpeed = %v", got)
	}
}

func TestReportDropsNonFinite(t *testing.T) {
	rep := newReport()
	rep.add("x", "ms", math.NaN(), 0)
	rep.add("y", "ms", math.Inf(1), 0)
	for _, m := range rep.metrics {
		if m.Value != 0 {
			t.Errorf("%s = %v, want 0", m.Name, m.Value)
		}
	}
}
