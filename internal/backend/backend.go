// Package backend is the seam between Swarm's public API and its
// execution engines. A Backend is a program-loaded engine parked at a
// quiescent point; everything above this package — the swarm.Sim
// session surface, the benchmark suite, the harness, the daemon — drives
// that surface only, so the cycle-level simulator (internal/core) and the
// native speculative runtime (internal/rt) are interchangeable per run
// via Config.Backend. This package is the one place that knows which
// engines exist and how one is built.
package backend

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
	"github.com/swarm-sim/swarm/internal/rt"
)

// Backend is one execution engine running one guest program: phased
// execution to quiescence, root injection and setup-cost memory access
// between phases, and cumulative statistics. *core.Machine and
// *rt.Runtime both satisfy it natively.
type Backend interface {
	// Mem exposes guest memory at quiescent points (setup, between
	// phases, result extraction).
	Mem() *mem.Memory
	// SetupAlloc and SetupFree are the zero-cost setup-time allocator.
	SetupAlloc(nBytes uint64) uint64
	SetupFree(addr, nBytes uint64)
	// EnqueueRootDesc injects a parentless task for the next phase.
	EnqueueRootDesc(d guest.TaskDesc)
	// QueuedTasks returns the number of injected-but-unrun root tasks.
	QueuedTasks() int
	// RunPhase drains all queued tasks and their descendants to the
	// §4.1 termination condition and reports the phase (core.PhaseOf).
	RunPhase() (core.PhaseStats, error)
	// Snapshot returns cumulative run statistics.
	Snapshot() core.Stats
}

// engine is what New needs of a freshly constructed engine: the Backend
// surface plus the one-time installation of the program's functions.
type engine interface {
	Backend
	SetProgram(ft *guest.FnTable)
}

// names lists the valid Config.Backend values, default first: the
// cycle-level simulator, then the native runtime and its conservative
// variant.
var names = []string{"sim", "rt", "rt-conservative"}

// Names lists the valid Config.Backend values, default first.
func Names() []string { return slices.Clone(names) }

// CheckName reports whether name selects an engine ("" selects the
// default simulator and is valid); the error lists the valid names.
func CheckName(name string) error {
	if name == "" || slices.Contains(names, name) {
		return nil
	}
	valid := Names()
	slices.Sort(valid)
	return fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(valid, ", "))
}

// BuildFunc lays out guest memory through the backend's setup surface,
// registers the program's task functions, and returns the root tasks.
// It runs exactly once, on a quiescent backend, before any task executes.
type BuildFunc func(b Backend) (roots []guest.TaskDesc, fns *guest.FnTable)

// New constructs the engine cfg.Backend selects (each engine validates
// cfg and starts live and quiescent), runs build against it, installs the
// program and enqueues the returned roots: one sequence for every engine.
// Programs that register no task functions or return no roots are
// rejected identically on every backend — a silently empty run is an
// error, not a result.
func New(cfg core.Config, build BuildFunc) (Backend, error) {
	if err := CheckName(cfg.Backend); err != nil {
		return nil, err
	}
	var e engine
	var err error
	if cfg.Backend == "" || cfg.Backend == names[0] {
		e, err = core.NewMachine(cfg)
	} else {
		e, err = rt.New(cfg)
	}
	if err != nil {
		return nil, err
	}
	roots, ft := build(e)
	if err := checkProgram(ft, roots); err != nil {
		return nil, err
	}
	e.SetProgram(ft)
	for _, d := range roots {
		e.EnqueueRootDesc(d)
	}
	return e, nil
}

// checkProgram enforces the build contract once, for every engine, with
// the error text the public swarm API has always used.
func checkProgram(ft *guest.FnTable, roots []guest.TaskDesc) error {
	if ft == nil || len(ft.Fns()) == 0 {
		return errors.New("swarm: App.Build registered no task functions (use Builder.Fn)")
	}
	if len(roots) == 0 {
		return errors.New("swarm: App.Build returned no root tasks — the run would be empty; return at least one Task (or check the slice you built)")
	}
	return nil
}
