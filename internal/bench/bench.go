// Package bench implements the ordered-parallelism benchmark suite: the
// paper's six applications — bfs, sssp, astar, msf, des and silo (§2.2,
// Table 4) — plus later workload additions (kcore, color, stream,
// incsssp, dsssp, setcover, msort, treebuild), each in up to three
// flavors:
//
//   - a tuned serial version (the Fig 12 baseline), run in direct mode;
//   - the state-of-the-art software-parallel version (PBFS, Bellman-Ford,
//     PBBS-style deterministic reservations, Chandy-Misra-Bryant, Silo,
//     bucket-synchronous peeling; only bfs, sssp, msf, des, silo, kcore
//     and color have one), run on the smp machine;
//   - the Swarm version, decomposed into tiny timestamped tasks.
//
// All flavors operate on the same guest-memory data structures and perform
// the same algorithmic work (§5), and every run is verified against a
// host-side reference before its cycle count is trusted.
//
// Applications self-register (see Register/Apps/NewSuite in registry.go)
// with per-scale input sizes and figure membership, and the registry reads
// flavor availability off each app's type, so the harness, the CLIs and
// the oracle enumerate the suite without hardcoded lists.
package bench

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/backend"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/smp"
)

// Benchmark is one application in all of its flavors. An app states
// each flavor once: SwarmApp and SerialApp are its machine-independent
// programs, RunSwarm and RunSerial come from the embedded runner, and the
// optional flavors are the Parallel and Sessioned interfaces.
//
// Implementations are immutable after construction (inputs, reference
// results) and every run builds a fresh simulated machine, so a
// Benchmark's methods are safe to call from concurrent host goroutines —
// the experiment harness fans independent runs out over a worker pool.
// Runs must also be deterministic: identical arguments always produce
// identical cycle counts, which is what makes host-parallel sweeps
// byte-identical to sequential ones.
type Benchmark interface {
	// Name returns the paper's benchmark name.
	Name() string
	// RunSerial executes the tuned serial version on a machine sized for
	// nCores (bigger machines have bigger caches, Fig 12) and returns
	// elapsed cycles after verifying the result.
	RunSerial(nCores int) (uint64, error)
	// RunSwarm executes the Swarm version and returns its statistics
	// after verifying the result.
	RunSwarm(cfg core.Config) (core.Stats, error)
	// SwarmApp exposes the machine-independent Swarm decomposition, used
	// by the oracle analysis tool (Table 1).
	SwarmApp() SwarmApp
	// SerialApp exposes the sequential implementation RunSerial runs and
	// the oracle's ideal-TLS analysis profiles (Table 1 bottom row). The
	// body must call iterMark at each loop-iteration boundary; work
	// before the first mark (e.g. msf's edge sort) is prologue, excluded
	// from the analysis.
	SerialApp() SerialApp
}

// Parallel is implemented by benchmarks that have a state-of-the-art
// software-parallel version (Fig 12's third series); RunParallel runs it.
type Parallel interface {
	Benchmark
	// ParallelApp exposes the software-parallel program.
	ParallelApp() ParallelApp
}

// SerialApp is a machine-independent sequential implementation: Build
// lays out guest memory and returns the body, Verify checks the final
// memory state.
type SerialApp struct {
	Build  func(alloc func(uint64) uint64, store func(addr, val uint64)) func(e guest.Env, iterMark func())
	Verify func(load func(addr uint64) uint64) error
}

// ParallelApp is a machine-independent software-parallel program: Build
// lays out guest memory for threads threads (histograms, partitions and
// barriers size by it) and returns the body every thread runs, Verify
// checks the final memory state.
type ParallelApp struct {
	Build  func(alloc func(uint64) uint64, store func(addr, val uint64), threads uint64) guest.ThreadFn
	Verify func(load func(addr uint64) uint64) error
}

// SwarmApp is a machine-independent Swarm program: Build lays out guest
// memory with the build environment's setup-time primitives, registers
// named task functions (b.Fn), and returns the root tasks. Verify checks
// the final memory state.
type SwarmApp struct {
	Build  func(b *guest.AppBuild) []guest.TaskDesc
	Verify func(load func(addr uint64) uint64) error
}

// Backend builds and starts the execution backend cfg.Backend selects
// (simulator or native runtime), running the app's Build against its
// setup surface and enqueueing the roots. The returned backend is parked
// before phase 1.
func (app SwarmApp) Backend(cfg core.Config) (backend.Backend, error) {
	return backend.New(cfg, func(bk backend.Backend) ([]guest.TaskDesc, *guest.FnTable) {
		b := &guest.AppBuild{Alloc: bk.SetupAlloc, Store: bk.Mem().Store}
		roots := app.Build(b)
		return roots, &b.FnTable
	})
}

// runner supplies Benchmark's RunSwarm and RunSerial to an app that
// embeds it; the app's constructor binds it (b.runner = runner{b}).
type runner struct {
	app interface {
		SwarmApp() SwarmApp
		SerialApp() SerialApp
	}
}

// RunSwarm builds the app's SwarmApp on the backend cfg selects, runs it
// to quiescence and verifies the result.
func (r runner) RunSwarm(cfg core.Config) (core.Stats, error) {
	app := r.app.SwarmApp()
	bk, err := app.Backend(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	ph, err := bk.RunPhase()
	if err != nil {
		return core.Stats{}, err
	}
	if app.Verify != nil {
		if err := app.Verify(bk.Mem().Load); err != nil {
			return core.Stats{}, fmt.Errorf("swarm result verification failed: %w", err)
		}
	}
	return ph.Cumulative, nil
}

// RunSerial builds the app's SerialApp on a serial machine sized for
// nCores, runs the body in direct mode and verifies the result.
func (r runner) RunSerial(nCores int) (uint64, error) {
	app := r.app.SerialApp()
	m := smp.NewSerialMachine(nCores)
	body := app.Build(m.SetupAlloc, m.Mem().Store)
	cycles := m.Run(func(e guest.Env) { body(e, func() {}) })
	return cycles, app.Verify(m.Mem().Load)
}

// RunParallel builds p's ParallelApp on an smp machine of nCores cores,
// runs one thread per core and returns elapsed cycles after verifying the
// result.
func RunParallel(p Parallel, nCores int) (uint64, error) {
	app := p.ParallelApp()
	m := smp.NewMachine(nCores)
	st, err := m.Run(app.Build(m.SetupAlloc, m.Mem().Store, uint64(nCores)))
	if err != nil {
		return 0, err
	}
	return st.Cycles, app.Verify(m.Mem().Load)
}

// Sessioned is implemented by benchmarks that execute as multi-phase
// sessions: run to quiescence, mutate inputs, inject new roots, run
// again. RunSwarm on such a benchmark reports the cumulative Stats of the
// whole session; RunPhases gives the per-phase breakdown.
type Sessioned interface {
	Benchmark
	// OpenSession builds the machine (laying out guest memory and
	// enqueueing the initial roots) and parks it before phase 1.
	OpenSession(cfg core.Config) (*Session, error)
}

// RunPhases opens a session and steps it to completion, returning one
// PhaseStats per phase, each verified against the benchmark's per-phase
// reference.
func RunPhases(b Sessioned, cfg core.Config) ([]core.PhaseStats, error) {
	s, err := b.OpenSession(cfg)
	if err != nil {
		return nil, err
	}
	for s.Remaining() > 0 {
		if _, err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Phases(), nil
}

// Session is a live phased run: a warm simulated machine parked at a
// quiescent point between phases. Where RunPhases executes every phase
// in one call, a Session steps on demand — the resubmission pattern a
// simulation daemon serves, where a client advances an incremental
// workload one update batch at a time against state that stays resident.
//
// A Session is not safe for concurrent use; callers (e.g. swarmd's
// session pool) serialize Step per session. Stepping a session is
// deterministic: the k-th phase produces identical statistics no matter
// how the steps interleave with other sessions.
type Session struct {
	app    string
	total  int
	phases []core.PhaseStats
	step   func(phase int) (core.PhaseStats, error)
}

// NewSession assembles a live session for OpenSession implementations:
// total phases and a step hook executing 0-based phase k (inject the
// phase's inputs, run to quiescence, verify).
func NewSession(app string, total int, step func(phase int) (core.PhaseStats, error)) *Session {
	return &Session{app: app, total: total, step: step}
}

// PhaseCount returns the session's total phase count.
func (s *Session) PhaseCount() int { return s.total }

// Done returns how many phases have completed.
func (s *Session) Done() int { return len(s.phases) }

// Remaining returns how many phases are left to step.
func (s *Session) Remaining() int { return s.total - len(s.phases) }

// Phases returns the statistics of every completed phase, in order.
func (s *Session) Phases() []core.PhaseStats { return s.phases }

// Step executes the next phase — injecting that phase's inputs, running
// to quiescence and verifying against the per-phase reference — and
// returns its statistics. Stepping past the last phase is an error.
func (s *Session) Step() (core.PhaseStats, error) {
	if s.Remaining() == 0 {
		return core.PhaseStats{}, fmt.Errorf("%s session: all %d phases have run", s.app, s.total)
	}
	ph, err := s.step(len(s.phases))
	if err != nil {
		return core.PhaseStats{}, err
	}
	s.phases = append(s.phases, ph)
	return ph, nil
}
