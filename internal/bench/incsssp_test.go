package bench

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
)

// TestIncSSSPPhases: on every backend, and on the simulator with a
// tracer, the phased session solves every batch correctly (per-phase
// verification runs inside RunPhases) and core.PhaseOf's accounting is
// coherent: one numbered phase per batch plus the initial solve, phase
// k+1 starting where phase k ended, every counter of the phases' own
// Stats summing to the last phase's Cumulative, and the phases' traces
// concatenating to the cumulative trace.
func TestIncSSSPPhases(t *testing.T) {
	cases := []struct {
		backend string
		trace   uint64
	}{{"sim", 0}, {"rt", 0}, {"rt-conservative", 0}, {"sim", 500}}
	for _, tc := range cases {
		b, err := New("incsssp", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(4)
		cfg.Backend, cfg.TraceInterval = tc.backend, tc.trace
		name := fmt.Sprintf("%s trace=%d", tc.backend, tc.trace)
		phases, err := RunPhases(b.(Sessioned), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(phases) != 3 {
			t.Fatalf("%s: %d phases, want 3", name, len(phases))
		}
		sum := map[string]uint64{}
		var trace []core.TraceSample
		for i, ph := range phases {
			if ph.Phase != i+1 {
				t.Errorf("%s: phase %d numbered %d", name, i+1, ph.Phase)
			}
			if i > 0 && ph.StartCycle != phases[i-1].EndCycle {
				t.Errorf("%s: phase %d starts at %d but phase %d ended at %d",
					name, i+1, ph.StartCycle, i, phases[i-1].EndCycle)
			}
			if ph.Cycles != ph.EndCycle-ph.StartCycle {
				t.Errorf("%s: phase %d cycle arithmetic: %d != %d-%d", name, i+1, ph.Cycles, ph.EndCycle, ph.StartCycle)
			}
			if ph.Commits == 0 {
				t.Errorf("%s: phase %d committed nothing", name, i+1)
			}
			for c, v := range counters(ph.Stats) {
				sum[c] += v
			}
			trace = append(trace, ph.Trace...)
		}
		last := phases[len(phases)-1].Cumulative
		want := counters(last)
		if len(want) < 30 {
			t.Fatalf("only %d counters found in Stats", len(want))
		}
		for _, c := range slices.Sorted(maps.Keys(want)) {
			if sum[c] != want[c] {
				t.Errorf("%s: phases' %s sum to %d, cumulative is %d", name, c, sum[c], want[c])
			}
		}
		if (tc.backend == "sim") != (last.Cycles > 0) || (tc.backend != "sim") != (last.WallNS > 0) {
			t.Errorf("%s: cumulative cycles %d, wall time %d ns", name, last.Cycles, last.WallNS)
		}
		if (tc.trace > 0) != (len(trace) > 0) || !reflect.DeepEqual(trace, last.Trace) {
			t.Errorf("%s: phases hold %d trace samples, cumulative %d", name, len(trace), len(last.Trace))
		}
		// Incremental phases must be much cheaper than the initial solve:
		// that is the point of the workload.
		if phases[1].Commits >= phases[0].Commits {
			t.Errorf("%s: incremental phase re-ran the world: %d commits vs initial %d",
				name, phases[1].Commits, phases[0].Commits)
		}
	}
}

// counters flattens every uint64 counter of a Stats — its own fields, the
// cache counters and the per-class traffic — by name.
func counters(st core.Stats) map[string]uint64 {
	out := map[string]uint64{}
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			out[name] = v.Uint()
		case reflect.Struct:
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.IsExported() {
					walk(name+"."+f.Name, v.Field(i))
				}
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
			}
		}
	}
	walk("Stats", reflect.ValueOf(st))
	return out
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
