package harness

import (
	"bytes"
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
)

// TestPhasedRunsDeterministicAcrossWorkers: the phased-workload sweep and
// its CSV are byte-identical for every host worker count — the
// phased-run determinism contract (same phases + same -workers schedule ⇒
// identical snapshots), extended across the pool.
func TestPhasedRunsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cores := []int{1, 4}
	render := func(workers int) string {
		s := NewSuite(bench.ScaleTiny)
		s.SetWorkers(workers)
		pts, err := s.PhasedRuns(cores)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		PrintPhases(&buf, pts)
		if err := WritePhasesCSV(&buf, pts); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := render(1)
	if seq == "" {
		t.Fatal("empty phased sweep")
	}
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != seq {
			t.Fatalf("phases output differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestPhasedAppsEnumerates: the registry exposes at least incsssp as a
// session workload, and every phased app opens a session with a coherent
// phase count.
func TestPhasedAppsEnumerates(t *testing.T) {
	s := NewSuite(bench.ScaleTiny)
	apps := s.PhasedApps()
	if len(apps) == 0 {
		t.Fatal("no phased apps registered")
	}
	found := false
	for _, a := range apps {
		if a.Name() == "incsssp" {
			found = true
		}
		sess, err := a.OpenSession(core.DefaultConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if sess.PhaseCount() < 2 {
			t.Fatalf("%s: phase count %d, want >= 2", a.Name(), sess.PhaseCount())
		}
	}
	if !found {
		t.Fatal("incsssp not enumerated as a phased app")
	}
}
