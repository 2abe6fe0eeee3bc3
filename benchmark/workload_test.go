package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSwarmdJobsTraced drives the daemon workload for one second with
// tracing on: two clients record spans into one tracer concurrently, every
// job must succeed, and every per-layer serve metric must be present.
func TestSwarmdJobsTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon for a few seconds")
	}
	rc := &runCtx{seed: 3, seconds: time.Second, tr: newTracer(), tmp: t.TempDir()}
	rep := swarmdJobs(rc)
	if rep.tally.failed != 0 || rep.tally.attempted == 0 {
		t.Fatalf("tally %+v", rep.tally)
	}
	res, err := resultFor(rep, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve.submit_ms", "serve.poll_ms", "serve.polls_per_job", "serve.cache_hit_ratio"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	if _, err := resultFor(rep, false); err != nil {
		t.Errorf("end-to-end result: %v", err)
	}
	spans := rc.tr.snapshot()
	if len(byName(spans, "job")) == 0 || len(byName(spans, "poll")) == 0 {
		t.Errorf("no job or poll spans among %d", len(spans))
	}
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	if got := gitCommit(dir); got != "unknown" {
		t.Errorf("no .git: %q", got)
	}
	git := filepath.Join(dir, ".git")
	write := func(name, data string) {
		p := filepath.Join(git, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs\nabc123 refs/heads/main\n")
	if got := gitCommit(dir); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	write("refs/heads/main", "def456\n")
	if got := gitCommit(dir); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
	write("HEAD", "0123abcd\n")
	if got := gitCommit(dir); got != "0123abcd" {
		t.Errorf("detached: %q", got)
	}
}
