package bench

import (
	"reflect"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestIncSSSPPhases: the phased session solves every batch correctly
// (per-phase verification runs inside RunPhases) and the phase
// accounting is coherent: contiguous cycle ranges, commits summing to the
// cumulative count, and one phase per batch plus the initial solve.
func TestIncSSSPPhases(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	phases, err := RunPhases(b, core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != b.PhaseCount() {
		t.Fatalf("phases = %d, want %d", len(phases), b.PhaseCount())
	}
	var commits uint64
	for i, ph := range phases {
		if ph.Phase != i+1 {
			t.Fatalf("phase %d numbered %d", i+1, ph.Phase)
		}
		if i > 0 && ph.StartCycle != phases[i-1].EndCycle {
			t.Fatalf("phase %d starts at %d but phase %d ended at %d",
				i+1, ph.StartCycle, i, phases[i-1].EndCycle)
		}
		if ph.Cycles != ph.EndCycle-ph.StartCycle {
			t.Fatalf("phase %d cycle arithmetic: %d != %d-%d", i+1, ph.Cycles, ph.EndCycle, ph.StartCycle)
		}
		if ph.Commits == 0 {
			t.Fatalf("phase %d committed nothing", i+1)
		}
		commits += ph.Commits
	}
	last := phases[len(phases)-1].Cumulative
	if commits != last.Commits {
		t.Fatalf("phase commits sum to %d, cumulative says %d", commits, last.Commits)
	}
	// Incremental phases must be much cheaper than the initial solve:
	// that is the point of the workload.
	if phases[1].Commits >= phases[0].Commits {
		t.Fatalf("incremental phase re-ran the world: %d commits vs initial %d",
			phases[1].Commits, phases[0].Commits)
	}
}

// TestIncSSSPSerial: the serial incremental reference matches the final
// Dijkstra distances (verification inside RunSerial).
func TestIncSSSPSerial(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	cyc, err := b.RunSerial(4)
	if err != nil {
		t.Fatal(err)
	}
	if cyc == 0 {
		t.Fatal("serial run took no cycles")
	}
}

// TestIncSSSPDeterministicPhases: identical sessions produce identical
// per-phase statistics — the phased-determinism contract the sweep CSVs
// rely on.
func TestIncSSSPDeterministicPhases(t *testing.T) {
	run := func() []core.PhaseStats {
		phases, err := RunPhases(NewIncSSSP(8, 8, 2, 4, 7), core.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		return phases
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Cycles != b[i].Cycles || a[i].Events != b[i].Events ||
			a[i].Commits != b[i].Commits || a[i].Aborts != b[i].Aborts ||
			a[i].Enqueues != b[i].Enqueues || a[i].TrafficBytes != b[i].TrafficBytes {
			t.Fatalf("phase %d nondeterministic:\n  %+v\n  %+v", i+1, a[i], b[i])
		}
	}
}

// TestIncSSSPSwarmMatchesPhases: RunSwarm is the session's cumulative
// result.
func TestIncSSSPSwarmMatchesPhases(t *testing.T) {
	b := NewIncSSSP(8, 8, 2, 4, 7)
	st, err := b.RunSwarm(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	phases, err := RunPhases(b, core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	last := phases[len(phases)-1].Cumulative
	if st.Cycles != last.Cycles || st.Commits != last.Commits || st.Events != last.Events {
		t.Fatalf("RunSwarm %+v != phased cumulative %+v", st, last)
	}
}

// TestIncSSSPSession drives the live-session API step by step and checks
// it is exactly RunPhases unrolled: same phase statistics, correct
// Done/Remaining accounting, and a loud error past the last phase.
func TestIncSSSPSession(t *testing.T) {
	b := NewIncSSSP(10, 10, 2, 5, 3)
	want, err := RunPhases(b, core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	s, err := b.OpenSession(core.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.PhaseCount() != b.PhaseCount() || s.Done() != 0 {
		t.Fatalf("fresh session: total=%d done=%d", s.PhaseCount(), s.Done())
	}
	for k := 0; s.Remaining() > 0; k++ {
		ph, err := s.Step()
		if err != nil {
			t.Fatalf("step %d: %v", k+1, err)
		}
		if !reflect.DeepEqual(ph, want[k]) {
			t.Fatalf("step %d stats diverge from RunPhases", k+1)
		}
		if s.Done() != k+1 {
			t.Fatalf("after step %d: Done = %d", k+1, s.Done())
		}
	}
	if !reflect.DeepEqual(s.Phases(), want) {
		t.Fatal("session phases diverge from RunPhases")
	}
	if _, err := s.Step(); err == nil {
		t.Fatal("stepping past the last phase: want an error")
	}
}

// TestRegistryPhasedMeta: the Phased metadata bit Register derived from
// the app's type agrees with the constructed benchmark for every
// registered app.
func TestRegistryPhasedMeta(t *testing.T) {
	for _, meta := range Apps() {
		b, err := New(meta.Name, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.(Sessioned); meta.Phased != ok {
			t.Errorf("%s: meta.Phased = %v but benchmark implements Sessioned = %v", meta.Name, meta.Phased, ok)
		}
	}
}
