package backend

import (
	"reflect"
	"strings"
	"testing"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

// counterBuild is a minimal program: n root tasks at distinct timestamps
// each fold their timestamp into an accumulator (order-sensitive).
func counterBuild(n int) BuildFunc {
	return func(b Backend) ([]guest.TaskDesc, *guest.FnTable) {
		ft := &guest.FnTable{}
		acc := b.SetupAlloc(8)
		b.Mem().Store(acc, 1)
		fn := ft.Fn("fold", func(e guest.TaskEnv) {
			e.Store(acc, e.Load(acc)*3+e.Timestamp())
		})
		var roots []guest.TaskDesc
		for i := 0; i < n; i++ {
			roots = append(roots, guest.TaskDesc{Fn: fn, TS: uint64(i + 1)})
		}
		return roots, ft
	}
}

func config(backend string) core.Config {
	cfg := core.DefaultConfig(4)
	cfg.Backend = backend
	return cfg
}

// TestEveryBackendRuns drives one program through each engine via the
// shared surface and requires identical final guest memory.
func TestEveryBackendRuns(t *testing.T) {
	var want map[uint64]uint64
	for _, name := range append([]string{""}, Names()...) {
		b, err := New(config(name), counterBuild(50))
		if err != nil {
			t.Fatalf("backend %q: New: %v", name, err)
		}
		if got := b.QueuedTasks(); got != 50 {
			t.Errorf("backend %q: QueuedTasks = %d, want 50", name, got)
		}
		ph, err := b.RunPhase()
		if err != nil {
			t.Fatalf("backend %q: RunPhase: %v", name, err)
		}
		if ph.Commits < 50 {
			t.Errorf("backend %q: commits = %d, want >= 50", name, ph.Commits)
		}
		st := b.Snapshot()
		wantName := name
		if wantName == "" {
			wantName = "sim"
		}
		if st.Backend != wantName {
			t.Errorf("backend %q: Stats.Backend = %q", name, st.Backend)
		}
		snap := b.Mem().Snapshot()
		if want == nil {
			want = snap
			continue
		}
		if !reflect.DeepEqual(snap, want) {
			t.Errorf("backend %q: final memory differs from simulator", name)
		}
	}
}

// TestHoistedBuildValidation: a program with no functions or no roots is
// rejected with the same error on every backend.
func TestHoistedBuildValidation(t *testing.T) {
	noFns := func(b Backend) ([]guest.TaskDesc, *guest.FnTable) {
		return []guest.TaskDesc{{TS: 1}}, &guest.FnTable{}
	}
	noRoots := func(b Backend) ([]guest.TaskDesc, *guest.FnTable) {
		ft := &guest.FnTable{}
		ft.Fn("noop", func(guest.TaskEnv) {})
		return nil, ft
	}
	for _, name := range append([]string{""}, Names()...) {
		if _, err := New(config(name), noFns); err == nil ||
			err.Error() != "swarm: App.Build registered no task functions (use Builder.Fn)" {
			t.Errorf("backend %q: no-fns err = %v", name, err)
		}
		if _, err := New(config(name), noRoots); err == nil ||
			!strings.Contains(err.Error(), "swarm: App.Build returned no root tasks") {
			t.Errorf("backend %q: no-roots err = %v", name, err)
		}
	}
}

// TestSharedConfigValidation: malformed configurations, an unknown mapper
// among them, are rejected with the core package's error text regardless
// of backend, and an unknown backend name lists the valid ones.
func TestSharedConfigValidation(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		cfg := config(name)
		cfg.Tiles = 0
		_, err := New(cfg, counterBuild(1))
		if err == nil || !strings.Contains(err.Error(), "core: invalid machine size") {
			t.Errorf("backend %q: zero-tiles err = %v", name, err)
		}
		cfg = config(name)
		cfg.Mapper = "bogus"
		_, err = New(cfg, counterBuild(1))
		if want := `core: unknown mapper "bogus" (valid: hint, random)`; err == nil || err.Error() != want {
			t.Errorf("backend %q: unknown-mapper err = %v, want %s", name, err, want)
		}
	}
	cfg := config("turbo")
	_, err := New(cfg, counterBuild(1))
	if err == nil || !strings.Contains(err.Error(), `unknown backend "turbo"`) ||
		!strings.Contains(err.Error(), "rt, rt-conservative, sim") {
		t.Errorf("unknown backend err = %v, want valid options listed", err)
	}
}

// TestMultiPhaseParity runs a two-phase session on each backend: inject,
// drain, mutate memory at setup cost, inject again — final memory and
// commit counts must agree.
func TestMultiPhaseParity(t *testing.T) {
	type result struct {
		mem     map[uint64]uint64
		commits uint64
	}
	var want *result
	for _, name := range []string{"sim", "rt", "rt-conservative"} {
		var acc uint64
		var fn guest.FnID
		b, err := New(config(name), func(b Backend) ([]guest.TaskDesc, *guest.FnTable) {
			ft := &guest.FnTable{}
			acc = b.SetupAlloc(8)
			fn = ft.Fn("add", func(e guest.TaskEnv) {
				e.Store(acc, e.Load(acc)+e.Arg(0))
			})
			return []guest.TaskDesc{{Fn: fn, TS: 0, Args: [3]uint64{5}}}, ft
		})
		if err != nil {
			t.Fatalf("backend %q: New: %v", name, err)
		}
		if _, err := b.RunPhase(); err != nil {
			t.Fatalf("backend %q: phase 1: %v", name, err)
		}
		b.Mem().Store(acc, b.Mem().Load(acc)*10) // setup-cost edit between phases
		b.EnqueueRootDesc(guest.TaskDesc{Fn: fn, TS: 0, Args: [3]uint64{7}})
		ph, err := b.RunPhase()
		if err != nil {
			t.Fatalf("backend %q: phase 2: %v", name, err)
		}
		if ph.Phase != 2 {
			t.Errorf("backend %q: Phase = %d, want 2", name, ph.Phase)
		}
		if got := b.Mem().Load(acc); got != 57 {
			t.Errorf("backend %q: acc = %d, want 57", name, got)
		}
		got := &result{mem: b.Mem().Snapshot(), commits: b.Snapshot().Commits}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.mem, want.mem) || got.commits != want.commits {
			t.Errorf("backend %q: session outcome differs from simulator", name)
		}
	}
}
