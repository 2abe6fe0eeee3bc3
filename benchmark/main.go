// Command swarmbench is the repository benchmark. It runs one workload
// for a fixed time and prints every metric by name, unit and sample count,
// then one JSON result line:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads, each in its own process:
//
//   - sim-suite: the cycle-level simulator, 64 cores, -scale small, one
//     Benchmark.RunSwarm per cell per pass over bfs, sssp, msf, des, silo,
//     kcore and msort.
//   - rt-large: the native runtime at 2 workers, -scale large, over bfs,
//     sssp, dsssp, setcover, silo and msort on rt plus bfs on
//     rt-conservative.
//   - swarmd-jobs: an in-process swarmd on a loopback listener driven by
//     2 closed-loop clients alternating fresh-seed (uncached) and repeated
//     (cached) jobs.
//
// With --trace 0 the result line holds the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it holds the per-layer metrics, measured
// with spans the benchmark records around the calls it makes into each
// module, and the spans are written to .bench_build/results.
//
// Host times are in reference time: wall time scaled by a fixed reference
// computation timed around each pass, or between the one-second slices of
// swarmd-jobs (calib.go), so that drift in the shared host's speed cancels
// out.
//
// The seed sets Config.Seed of the sim-suite cells, the cell order of
// rt-large, and the fresh-seed sequence and cached/uncached interleave of
// swarmd-jobs. App inputs are the registry's.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/user"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// outDir, relative to the repository root the benchmark runs from, holds
// everything a run writes: run records, span files and scratch data.
// benchmark/run.sh puts the Go build cache and the graph cache there too.
const outDir = ".bench_build"

// runCtx is one invocation's settings.
type runCtx struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil unless traced
	tmp     string  // scratch directory inside the output directory
	meta    *meta
}

var workloads = map[string]func(*runCtx) *report{
	"sim-suite":   simSuite,
	"rt-large":    rtLarge,
	"swarmd-jobs": swarmdJobs,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swarmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sim-suite, rt-large or swarmd-jobs")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "swarmbench: need --workload (sim-suite, rt-large or swarmd-jobs), --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	rc := &runCtx{seed: *seed, seconds: time.Duration(*seconds) * time.Second, tmp: filepath.Join(outDir, "tmp")}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "swarmbench: %v\n", err)
		return 1
	}
	rc.meta = newMeta(*workload, *seed, *seconds, *trace == 1)

	rep := fn(rc)
	rep.addErrorRate()
	res, err := resultFor(rep, rc.tr != nil)
	if err != nil {
		fmt.Fprintf(stderr, "swarmbench: %v\n", err)
		return 1
	}

	var human bytes.Buffer
	fmt.Fprintf(&human, "workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(&human, "meta %s\n", marshalLine(rc.meta))
	rep.print(&human)
	stdout.Write(human.Bytes())

	line := marshalLine(res)
	if err := writeRecord(rc, rep, line); err != nil {
		fmt.Fprintf(stderr, "swarmbench: writing the run record: %v\n", err)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// writeRecord keeps the run's metadata, every metric and the result line
// in outDir/results, plus the spans of a traced run.
func writeRecord(rc *runCtx, rep *report, line string) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rc.meta.Workload, rc.meta.Seed, btoi(rc.tr != nil))
	rec := map[string]any{"meta": rc.meta, "metrics": rep.metrics, "failures": rep.tally.errs, "result": line}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), []byte(marshalLine(rec)+"\n"), 0o644); err != nil {
		return err
	}
	if rc.tr == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, base+"-spans.json"), rc.tr.snapshot())
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// meta records who ran what, where and when.
type meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Host       string `json:"host"`
	User       string `json:"user"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Start      string `json:"start"`
	PollUS     int64  `json:"swarmd_poll_us"`
}

func newMeta(workload string, seed int64, seconds int, traced bool) *meta {
	m := &meta{
		Commit:     gitCommit("."),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Start:      time.Now().UTC().Format(time.RFC3339),
		PollUS:     pollInterval.Microseconds(),
	}
	m.Host, _ = os.Hostname()
	if u, err := user.Current(); err == nil {
		m.User = u.Username
	} else {
		m.User = os.Getenv("USER")
	}
	return m
}

// gitCommit reads the checked-out commit from root/.git without running
// git, or returns "unknown" where the tree is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref // detached HEAD holds the hash itself
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(l, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
