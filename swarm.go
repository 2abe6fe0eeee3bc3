// Package swarm is a simulator for the Swarm architecture ("A Scalable
// Architecture for Ordered Parallelism", Jeffrey et al., MICRO-48, 2015):
// a tiled multicore that executes programs decomposed into tiny,
// programmer-timestamped tasks, speculatively and out of order, while
// committing them in timestamp order.
//
// Programs are Go functions that operate on simulated guest memory through
// the TaskEnv interface; every load, store and enqueue is timed by a
// detailed model of the paper's 64-core CMP (caches, mesh NoC, hardware
// task queues, Bloom-filter conflict detection, selective aborts, GVT
// commits).
//
// An application registers named task functions and returns root tasks
// from its Build hook (see Example in example_test.go for a complete
// program). One-shot execution:
//
//	res, err := swarm.Run(swarm.DefaultConfig(16), app)
//
// Incremental and phased execution goes through a session instead: NewSim
// builds a reusable machine, RunToQuiescence executes queued work to the
// paper's §4.1 termination point, and between phases the program may read
// and mutate guest memory at setup cost, enqueue new root tasks, and
// sample statistics (see ExampleNewSim). Run is a thin wrapper over a
// single-phase session and is bit-identical to it.
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper reproduction.
package swarm

import (
	"errors"
	"fmt"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// Env is the architectural interface guest code runs against: loads and
// stores of 64-bit words in simulated memory, compute cycles, and
// task-aware allocation.
type Env = guest.Env

// TaskEnv extends Env with the Swarm task model: the task's timestamp and
// arguments, plus enqueueTask (§4.1).
type TaskEnv = guest.TaskEnv

// TaskFn is a task body. Tasks appear to run atomically in timestamp
// order; the hardware speculates underneath.
type TaskFn = guest.TaskFn

// FnID is a typed handle to a task function registered with Builder.Fn.
// Put it in a Task's Fn field or pass it to TaskEnv.Enqueue.
type FnID = guest.FnID

// Task is an architectural task descriptor: function handle, 64-bit
// timestamp, and up to three argument words.
type Task = guest.TaskDesc

// Config describes the simulated machine (Table 3 of the paper). Table 3
// parameters that no experiment varies, such as the 3-cycle mesh hop,
// are constants rather than fields. Config.Backend selects the execution
// engine: the cycle-level simulator (the default) or the native
// speculative runtime (see BackendNames and DESIGN.md, "Execution
// backends").
type Config = core.Config

// BackendNames lists the valid Config.Backend values, default first:
// "sim" (the cycle-level simulator, also selected by the empty string),
// "rt" (the native speculative runtime) and "rt-conservative" (the native
// runtime without cross-timestamp speculation). NewSim and Run reject any
// other name with an error that lists these.
func BackendNames() []string { return backend.Names() }

// Stats reports a run's cycles, commits, aborts, queue occupancies, NoC
// traffic and cycle breakdowns.
type Stats = core.Stats

// PhaseStats reports one quiescence-to-quiescence phase of a session:
// the phase's own Stats plus the cumulative Stats at its end.
type PhaseStats = core.PhaseStats

// DefaultConfig returns the paper's machine configuration scaled to
// nCores cores (4-core tiles, 64 task queue entries and 16 commit queue
// entries per core, 2048-bit 8-way Bloom signatures, ...).
func DefaultConfig(nCores int) Config { return core.DefaultConfig(nCores) }

// Mem provides setup-cost access to guest memory: allocation,
// initialization and inspection outside the measured execution (before
// the run and, in sessions, between phases — the paper fast-forwards
// through initialization, §5). It is backend-agnostic: the same surface
// reaches simulator and native-runtime guest memory.
type Mem struct {
	b backend.Backend
}

// Alloc reserves n bytes of guest memory (64-byte aligned) at no
// simulated cost.
func (m *Mem) Alloc(n uint64) uint64 { return m.b.SetupAlloc(n) }

// Free releases an allocation at no simulated cost. Valid only at
// quiescent points, where no speculative task can hold the region.
func (m *Mem) Free(addr, n uint64) { m.b.SetupFree(addr, n) }

// Store initializes a 64-bit guest word at no simulated cost.
func (m *Mem) Store(addr, val uint64) { m.b.Mem().Store(addr, val) }

// Load reads a 64-bit guest word.
func (m *Mem) Load(addr uint64) uint64 { return m.b.Mem().Load(addr) }

// AllocWords reserves and zero-initializes n 64-bit words, returning the
// base address.
func (m *Mem) AllocWords(n uint64) uint64 { return m.Alloc(n * 8) }

// StoreWords initializes consecutive 64-bit guest words starting at addr
// at no simulated cost.
func (m *Mem) StoreWords(addr uint64, vals []uint64) {
	for i, v := range vals {
		m.b.Mem().Store(addr+uint64(i)*8, v)
	}
}

// LoadWords bulk-reads n consecutive 64-bit guest words starting at addr.
func (m *Mem) LoadWords(addr, n uint64) []uint64 {
	return m.Words(addr, n).Values()
}

// NewWords allocates a fresh n-word guest array and returns a typed view
// of it.
func (m *Mem) NewWords(n uint64) Words {
	return Words{base: m.AllocWords(n), n: n, mem: m.b.Mem()}
}

// Words returns a typed view of n existing guest words at addr.
func (m *Mem) Words(addr, n uint64) Words {
	return Words{base: addr, n: n, mem: m.b.Mem()}
}

// Builder is the build-time view handed to App.Build: guest-memory setup
// through the embedded Mem, plus named task-function registration. The
// returned handles go into root Tasks and TaskEnv.Enqueue calls, replacing
// positional function-table indices.
type Builder struct {
	*Mem
	fns *guest.FnTable
}

// Fn registers a task body under a diagnostic name and returns its typed
// handle. Registration order is observable only through diagnostics;
// handles are the API.
func (b *Builder) Fn(name string, fn TaskFn) FnID { return b.fns.Fn(name, fn) }

// App is a Swarm application: Build lays out guest memory, registers the
// task functions by name, and returns the root tasks that seed execution.
type App struct {
	Build func(b *Builder) []Task
}

// Result is a completed run: statistics plus read access to the final
// guest memory for result extraction.
type Result struct {
	Stats Stats
	mem   *mem.Memory
}

// Load reads a 64-bit word of the final memory state.
func (r Result) Load(addr uint64) uint64 { return r.mem.Load(addr) }

// Words bulk-reads n consecutive 64-bit words of the final memory state
// starting at addr.
func (r Result) Words(addr, n uint64) []uint64 {
	return r.View(addr, n).Values()
}

// View returns a typed (read-only by convention) view of n final-state
// guest words at addr.
func (r Result) View(addr, n uint64) Words {
	return Words{base: addr, n: n, mem: r.mem}
}

// Sim is a reusable simulation session: a machine that runs its program
// to quiescence (§4.1: all queues empty, all tasks committed), then
// accepts guest-memory mutation and new root tasks before running again.
// The clock, caches and statistics carry across phases, so sessions
// express warm restarts, incremental inputs and occupancy-over-time
// measurement that one-shot Run cannot.
//
// A Sim is not safe for concurrent use. Under the default simulator
// backend it is fully deterministic — the same configuration, program
// and phase inputs always produce the same cycle counts; under the
// native backends the final guest memory is equally deterministic but
// the wall-clock statistics are measured, not modeled.
type Sim struct {
	b        backend.Backend
	phases   []PhaseStats
	finished bool
}

// NewSim builds a session: the backend cfg.Backend selects is
// constructed, App.Build runs (laying out memory and enqueueing the
// roots), and the session parks at its initial quiescent point without
// executing a task. An App whose Build returns no root tasks is an
// error: the run would be silently empty.
func NewSim(cfg Config, app App) (*Sim, error) {
	if app.Build == nil {
		return nil, errors.New("swarm: App.Build is required")
	}
	bk, err := backend.New(cfg, func(bk backend.Backend) ([]Task, *guest.FnTable) {
		b := &Builder{Mem: &Mem{b: bk}, fns: &guest.FnTable{}}
		return app.Build(b), b.fns
	})
	if err != nil {
		return nil, err
	}
	return &Sim{b: bk}, nil
}

// Mem returns setup-cost access to guest memory. Valid at quiescent
// points: after NewSim, between phases, and after the last phase — this
// is how a session mutates inputs (and reads intermediate results)
// between RunToQuiescence calls.
func (s *Sim) Mem() *Mem { return &Mem{b: s.b} }

// Enqueue inserts parentless root tasks for the next phase, at no
// simulated cost (injection models an external agent — a network card, a
// host core — not a guest task). Timestamps are unconstrained: ordering
// is per phase, so new work may run "before" (in timestamp terms)
// already-committed history.
func (s *Sim) Enqueue(tasks ...Task) error {
	if s.finished {
		return errors.New("swarm: Enqueue after Finish")
	}
	for _, d := range tasks {
		s.b.EnqueueRootDesc(d)
	}
	return nil
}

// RunToQuiescence executes every queued task — and all of their
// descendants — to the §4.1 termination condition and returns the phase's
// statistics. Calling it with nothing queued is an error (inject work
// with Enqueue first).
func (s *Sim) RunToQuiescence() (PhaseStats, error) {
	if s.finished {
		return PhaseStats{}, errors.New("swarm: RunToQuiescence after Finish")
	}
	if s.b.QueuedTasks() == 0 {
		return PhaseStats{}, fmt.Errorf("swarm: phase %d has no queued tasks; call Enqueue first", len(s.phases)+1)
	}
	ph, err := s.b.RunPhase()
	if err != nil {
		return PhaseStats{}, err
	}
	s.phases = append(s.phases, ph)
	return ph, nil
}

// StatsSnapshot returns cumulative statistics at the session's current
// quiescent point — a GVT-safe sample: every counted task has committed,
// so the snapshot is exact, not speculative.
func (s *Sim) StatsSnapshot() Stats { return s.b.Snapshot() }

// Phases returns the statistics of every completed phase, in order.
func (s *Sim) Phases() []PhaseStats { return s.phases }

// Finish ends the session and returns the final state: cumulative
// statistics plus read access to guest memory. The session cannot run
// further phases afterwards.
func (s *Sim) Finish() Result {
	s.finished = true
	return Result{Stats: s.b.Snapshot(), mem: s.b.Mem()}
}

// Run executes the application on a machine with the given configuration,
// until no tasks remain (§4.1's termination condition), and returns the
// final state and statistics: a single-phase session. The simulation is
// deterministic: the same configuration and application always produce
// the same cycle count.
func Run(cfg Config, app App) (Result, error) {
	s, err := NewSim(cfg, app)
	if err != nil {
		return Result{}, err
	}
	if _, err := s.RunToQuiescence(); err != nil {
		return Result{}, err
	}
	return s.Finish(), nil
}

// Unvisited is a conventional sentinel for "not yet computed" values in
// guest data structures (all ones).
const Unvisited = ^uint64(0)
