// Package rt is swarm-rt: a native execution backend that runs Swarm
// guest programs speculatively on host goroutines instead of simulating
// them cycle by cycle. It keeps the paper's execution model — tiny
// timestamped tasks, optimistic out-of-order execution, strictly
// timestamp-ordered commits (§3) — but trades the simulator's modeled
// microarchitecture for a software runtime in the style of ordered
// software transactions (Saad et al.): per-word versioned committed
// state, per-attempt read sets and write buffers, commit-time
// validation, abort-and-retry on conflict. Because commits serialize in
// a deterministic virtual-time order and children take their sequence
// numbers at the parent's commit, the final guest memory is independent
// of worker interleaving and must equal the simulator's committed state
// for pure task bodies — the property the backend differential tests
// pin down.
//
// What rt reports differs from the simulator where the engines differ:
// there is no simulated clock, so Stats.Cycles stays zero and
// Stats.WallNS carries measured host time. Counter semantics shared by
// both engines (Commits, Aborts, Enqueues, Dequeues) keep their meanings;
// every abort requeues its task, so Aborts also counts re-executions.
//
// The conservative variant ("rt-conservative") uses the same machinery
// but only dispatches tasks at the minimum uncommitted timestamp, the
// classic conservative ordered schedule: no cross-timestamp speculation,
// aborts only from same-timestamp conflicts.
package rt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// errGuestPanic poisons a phase whose worker is about to re-panic with a
// genuine guest panic; peers that observe the error stop cleanly while
// the panicking worker unwinds the process.
var errGuestPanic = errors.New("rt: guest task panicked")

// Runtime executes one Swarm guest program natively. It presents the
// same phased-machine surface as core.Machine (Start, RunPhase,
// EnqueueRootDesc, Snapshot, ...) so the backend layer can swap the two.
// Like the machine it is single-use: one program, one run to completion,
// phase by phase.
type Runtime struct {
	cfg  core.Config
	name string

	base   *mem.Memory
	heap   *mem.Allocator
	heapMu sync.Mutex
	store  *store
	sched  *sched

	fns     []guest.TaskFn
	fnNames []string

	started bool
	running bool
	phase   int
	wallNS  uint64
}

// New builds a native runtime for cfg. cfg.Backend selects the variant
// ("rt" or "rt-conservative"); cfg.Cores() bounds worker parallelism;
// cfg.CommitQPerCore x cfg.Cores() bounds the software commit queue, as
// in the simulated machine, unless cfg.UnboundedQueues; cfg.DebugChecks
// enables the commit-time purity re-execution check.
func New(cfg core.Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Backend
	if name != "rt" && name != "rt-conservative" {
		return nil, fmt.Errorf("rt: config backend %q is not a native runtime", cfg.Backend)
	}
	r := &Runtime{
		cfg:  cfg,
		name: name,
		base: mem.New(),
		heap: mem.NewAllocator(),
	}
	r.store = newStore(r.base)
	r.sched = newSched(r, name == "rt-conservative")
	return r, nil
}

// SetProgram installs the guest function table. Must be called before
// the first RunPhase.
func (r *Runtime) SetProgram(fns []guest.TaskFn, names []string) {
	r.fns = fns
	r.fnNames = names
}

// Mem returns the guest memory. Between phases (and before/after the
// run) it holds exactly the committed state; during a phase it is frozen
// and must not be accessed.
func (r *Runtime) Mem() *mem.Memory { return r.base }

// SetupAlloc carves a line-aligned guest region outside any task, like
// the machine's setup-time allocation.
func (r *Runtime) SetupAlloc(nBytes uint64) uint64 {
	r.heapMu.Lock()
	defer r.heapMu.Unlock()
	return r.heap.AllocLineAligned(nBytes)
}

// SetupFree returns a setup-time region to the allocator immediately (no
// speculation is in flight outside tasks, so no quarantine is needed).
func (r *Runtime) SetupFree(addr, nBytes uint64) {
	r.heapMu.Lock()
	defer r.heapMu.Unlock()
	r.heap.Free(0, addr, nBytes)
	r.heap.ReleaseQuarantine(0)
}

// EnqueueRootDesc queues a root task. Roots take sequence numbers in
// enqueue order, which fixes the deterministic virtual-time total order.
func (r *Runtime) EnqueueRootDesc(d guest.TaskDesc) {
	r.sched.mu.Lock()
	r.sched.enqueueLocked(d)
	r.sched.mu.Unlock()
}

// QueuedTasks returns the number of runnable queued tasks.
func (r *Runtime) QueuedTasks() int {
	r.sched.mu.Lock()
	defer r.sched.mu.Unlock()
	return len(r.sched.ready)
}

// Start marks the runtime live. It exists for surface parity with the
// machine (which runs guest setup here); the backend layer runs setup
// itself and errors the same way on reuse.
func (r *Runtime) Start() error {
	if r.started {
		return errors.New("rt: runtime already ran")
	}
	r.started = true
	return nil
}

// Quiesced reports whether the runtime is started and between phases.
func (r *Runtime) Quiesced() bool { return r.started && !r.running }

// Phase returns the number of completed phases.
func (r *Runtime) Phase() int { return r.phase }

// RunPhase drains all queued tasks (and their transitive children) to
// quiescence on cfg.Cores() worker goroutines, then folds committed
// state into guest memory and reports the phase.
func (r *Runtime) RunPhase() (core.PhaseStats, error) {
	if !r.started {
		return core.PhaseStats{}, errors.New("rt: RunPhase before Start")
	}
	if r.running {
		return core.PhaseStats{}, errors.New("rt: RunPhase re-entered mid-phase")
	}
	if r.sched.err != nil {
		return core.PhaseStats{}, r.sched.err
	}
	r.running = true
	r.phase++

	s := r.sched
	s.mu.Lock()
	s.done = false
	start := [4]uint64{s.commits, s.aborts, s.enqueues, s.dequeues}
	s.mu.Unlock()

	r.store.beginPhase()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := range r.cfg.Cores() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	wall := uint64(time.Since(t0))
	r.wallNS += wall
	r.running = false
	// Fold committed words into guest memory even when the phase failed:
	// its committed prefix is the state Mem promises between phases.
	r.store.flush()

	s.mu.Lock()
	err := s.err
	end := [4]uint64{s.commits, s.aborts, s.enqueues, s.dequeues}
	s.mu.Unlock()
	if err != nil {
		return core.PhaseStats{}, err
	}
	return core.PhaseStats{
		Phase:      r.phase,
		WallNS:     wall,
		Commits:    end[0] - start[0],
		Aborts:     end[1] - start[1],
		Enqueues:   end[2] - start[2],
		Dequeues:   end[3] - start[3],
		Cumulative: r.Snapshot(),
	}, nil
}

// Snapshot returns cumulative run statistics in the shared Stats shape.
// Simulator-only fields (Cycles, cache, NoC, occupancies) stay zero; the
// native metric is WallNS.
func (r *Runtime) Snapshot() core.Stats {
	s := r.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.Stats{
		Backend:  r.name,
		Cores:    r.cfg.Cores(),
		Tiles:    r.cfg.Tiles,
		WallNS:   r.wallNS,
		Commits:  s.commits,
		Aborts:   s.aborts,
		Enqueues: s.enqueues,
		Dequeues: s.dequeues,
		Mapper:   r.cfg.Mapper,
	}
}

// work is worker w's loop: take a task, run one attempt of it outside the
// scheduler lock, and hand it back when taking the next. A panicking
// attempt goes through suspected-misspeculation triage instead.
func (r *Runtime) work(w int) {
	var finished *task
	for {
		t := r.sched.next(w, finished)
		if t == nil {
			return
		}
		finished = nil
		t.env.reset(t.desc)
		if panicked, pval := r.runBody(t.env); panicked {
			r.sched.handlePanic(w, t, pval)
			continue
		}
		finished = t
	}
}

// runBody invokes the guest function, capturing any panic.
func (r *Runtime) runBody(env *taskEnv) (panicked bool, pval any) {
	defer func() {
		if v := recover(); v != nil {
			panicked, pval = true, v
		}
	}()
	r.fns[env.desc.Fn](env)
	return false, nil
}

// recheckLocked is the DebugChecks purity check: re-execute a validated
// task against committed state at its commit point and require the same
// writes, children, and frees. Validation guarantees the re-execution
// observes the values the attempt read, so for a task that is a pure
// function of guest memory the outcomes must match; divergence means the
// body consults state outside guest memory (host globals, captured
// variables, map iteration order) and would behave differently across
// backends. Attempts that called Alloc are skipped — allocation is host
// state by design, so re-running it cannot be compared.
func (r *Runtime) recheckLocked(t *task) error {
	if t.env.allocd {
		return nil
	}
	env := r.sched.getEnvLocked()
	defer r.sched.putEnvLocked(env)
	env.reset(t.desc)
	if panicked, pval := r.runBody(env); panicked {
		return r.taskErr(t, "panicked on committed re-execution: %v (impure task body?)", pval)
	}
	// Compare by content: a nil set equals an empty one.
	if !slices.Equal(env.writes.addrs, t.env.writes.addrs) ||
		!slices.Equal(env.writeVals, t.env.writeVals) ||
		!slices.Equal(env.children, t.env.children) ||
		!slices.Equal(env.frees, t.env.frees) {
		return r.taskErr(t, "diverged on re-execution — task bodies must be pure functions of guest memory")
	}
	return nil
}

// taskErr labels an error with the offending task's name and timestamp.
func (r *Runtime) taskErr(t *task, format string, args ...any) error {
	name := fmt.Sprintf("fn%d", t.desc.Fn)
	if int(t.desc.Fn) < len(r.fnNames) {
		name = r.fnNames[t.desc.Fn]
	}
	return fmt.Errorf("rt: task %s(ts=%d) "+format,
		append([]any{name, t.desc.TS}, args...)...)
}
