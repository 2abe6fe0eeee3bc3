package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// -update regenerates the golden corpus instead of diffing against it:
//
//	go test ./cmd/fingerprint -run TestGoldenFingerprints -update
var update = flag.Bool("update", false, "rewrite the golden fingerprint corpus")

// goldenCores is the pinned sweep: every registered app at tiny scale on
// 1-, 4-, 16- and 64-core machines (1 tile through 16 tiles).
var goldenCores = []int{1, 4, 16, 64}

// TestGoldenFingerprints recomputes the full-Stats digest of every
// registered app x core count at tiny scale and diffs it against the
// pinned corpus in testdata. Any unintentional change to simulated
// behaviour — timing, conflicts, placement, traffic, cache activity —
// shows up as a per-cell diff; intentional model changes regenerate the
// corpus with -update and show the delta in review.
func TestGoldenFingerprints(t *testing.T) {
	var lines []string
	for _, name := range bench.AppNames() {
		b, err := bench.New(name, bench.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, nc := range goldenCores {
			cell, err := cellLines(b, nc, core.DefaultConfig(nc))
			if err != nil {
				t.Fatalf("%s @%dc: %v", name, nc, err)
			}
			lines = append(lines, cell...)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "tiny.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", path, len(lines))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the corpus)", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	// Report per-cell diffs, not a giant blob: each line is one (app,
	// cores) cell, so a localized model change reads as a short list.
	wantLines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	n := 0
	for i, g := range lines {
		var w string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			n++
			if n <= 6 {
				t.Errorf("cell %d differs:\n  got  %s\n  want %s", i, g, w)
			}
		}
	}
	if extra := len(wantLines) - len(lines); extra > 0 {
		t.Errorf("%d golden cells missing from this run (app removed? run -update)", extra)
	}
	t.Errorf("%d of %d fingerprint cells changed; if the model change is intentional, regenerate with -update and include the diff in review", n, len(lines))
}

// baselineCores is the pinned machine sweep of the serial and
// software-parallel baselines (Table 4, Figs 12 and 13).
var baselineCores = []int{1, 4, 16}

// TestBaselineCycles pins the non-Swarm flavors the golden corpus does
// not cover: the verified cycle count of every registered app's tuned
// serial version, and of its software-parallel version where one exists,
// at tiny scale on each baselineCores machine. A refactor of the
// benchmark suite that moves a baseline's guest layout or work shows up
// here as a per-line diff; -update rewrites the file like the corpus.
func TestBaselineCycles(t *testing.T) {
	var b strings.Builder
	for _, name := range bench.AppNames() {
		app, err := bench.New(name, bench.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		for _, nc := range baselineCores {
			cyc, err := app.RunSerial(nc)
			if err != nil {
				t.Fatalf("%s serial @%dc: %v", name, nc, err)
			}
			fmt.Fprintf(&b, "%s cores=%d impl=serial cycles=%d\n", name, nc, cyc)
			pb, ok := app.(bench.Parallel)
			if !ok {
				continue
			}
			cyc, err = bench.RunParallel(pb, nc)
			if err != nil {
				t.Fatalf("%s parallel @%dc: %v", name, nc, err)
			}
			fmt.Fprintf(&b, "%s cores=%d impl=parallel cycles=%d\n", name, nc, cyc)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "baselines.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(string(raw), "\n")
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d baseline lines, want %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
