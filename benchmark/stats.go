package main

import (
	"fmt"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles a latency is reported at, in parts per
// 100000 so that rank arithmetic stays exact.
var tailLadder = []int{50000, 90000, 99000, 99900}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile q (parts
// per 100000) among n sorted samples.
func rank(n, q int) int {
	k := (n*q + 99999) / 100000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest percentile of tailLadder (parts per
// 100000) that has at least minBeyond of n samples above it, and false if
// even the median has fewer.
func tailPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			best, ok = q, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile q (parts per 100000) of
// the samples, which must be sorted ascending.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// percentileName renders q as a metric suffix: 99000 -> "p99".
func percentileName(q int) string {
	if q%1000 == 0 {
		return fmt.Sprintf("p%d", q/1000)
	}
	return fmt.Sprintf("p%g", float64(q)/1000)
}

// latency summarizes one class of timed operations in milliseconds.
type latency struct {
	n        int
	p50      float64
	tail     float64 // value at tailQ
	tailQ    int     // highest percentile with minBeyond samples beyond it; 0 if none
	resolved bool    // whether tailQ exists
}

// summarize computes the median and the highest resolvable percentile of
// samples given in milliseconds.
func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{n: len(s), p50: percentile(s, 50000)}
	if q, ok := tailPercentile(len(s)); ok {
		l.tailQ, l.tail, l.resolved = q, percentile(s, q), true
	}
	return l
}

// rate folds per-cell work counts and host times into one throughput:
// the summed work divided by the summed seconds. Summing before dividing
// weights each cell by its time, so a pass's rate is its total work over
// its total time, not the mean of per-cell rates.
func rate(work []uint64, ns []int64) float64 {
	var w uint64
	var t int64
	for i := range work {
		w += work[i]
		t += ns[i]
	}
	if t <= 0 {
		return 0
	}
	return float64(w) / (float64(t) / 1e9)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts attempted and failed operations. A failure is recorded,
// never fatal: the run goes on and error_rate reports it.
type tally struct {
	attempted, failed int
	errs              []string // first few failure messages
}

// record counts one operation, failed if err is non-nil.
func (t *tally) record(op string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", op, err))
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// errorRate returns failed ÷ attempted.
func (t *tally) errorRate() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}
