package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"syscall"
)

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is what a workload run produced: its operations' outcomes and
// every metric under its descriptive name.
type report struct {
	tally   tally
	metrics []metric
	// alias maps each end-to-end metric of BENCHMARK.json to the
	// descriptive metric this workload reports under it.
	alias map[string]string
	notes []string
}

func newReport() *report { return &report{alias: map[string]string{}} }

// add records a metric. Non-finite values (an empty ratio) become 0.
func (r *report) add(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// addPeakRSS records the process's maximum resident set size. Linux
// reports Maxrss in KiB.
func (r *report) addPeakRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.tally.record("getrusage", err)
		return
	}
	r.add("peak_rss_mb", "MB", float64(ru.Maxrss)/1024, 1)
}

// addErrorRate records failed ÷ attempted operations.
func (r *report) addErrorRate() {
	r.add("error_rate", "fraction", r.tally.errorRate(), r.tally.attempted)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFor selects the contract's metrics from a report: the end-to-end
// set untraced, the per-layer set traced. A per-layer metric a workload
// does not reach reads 0; a missing end-to-end metric is a bug.
func resultFor(rep *report, traced bool) (result, error) {
	res := result{
		Correct:   rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   map[string]resultValue{},
	}
	if !traced {
		for _, c := range endToEnd {
			m, ok := rep.get(rep.alias[c.name])
			if !ok {
				return res, fmt.Errorf("workload reports no metric for %s", c.name)
			}
			res.Metrics[c.name] = resultValue{m.Value, c.unit}
		}
		return res, nil
	}
	for _, c := range perLayer() {
		m, _ := rep.get(c.name)
		res.Metrics[c.name] = resultValue{m.Value, c.unit}
	}
	return res, nil
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-28s %14.6g %-9s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, c := range endToEnd {
		if a, ok := r.alias[c.name]; ok {
			fmt.Fprintf(w, "contract %s = %s\n", c.name, a)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	for _, e := range r.tally.errs {
		fmt.Fprintf(w, "failure %s\n", e)
	}
}

func marshalLine(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("{\"error\": %q}", err.Error())
	}
	return string(data)
}
