// Package rt is swarm-rt: a native execution backend that runs Swarm
// guest programs speculatively on host goroutines instead of simulating
// them cycle by cycle. It keeps the paper's execution model — tiny
// timestamped tasks, optimistic out-of-order execution, strictly
// timestamp-ordered commits (§3) — but trades the simulator's modeled
// microarchitecture for a software runtime in the style of ordered
// software transactions (Saad et al.): per-word versioned committed
// state, per-attempt read sets and write buffers, commit-time
// validation, abort-and-retry on conflict. The earliest uncommitted
// attempt, which cannot abort, keeps neither: it reads and writes guest
// memory in place, with an undo log, as §4.3's eager versioning does.
// Because commits serialize in a deterministic virtual-time order and
// children take their sequence numbers at the parent's commit, the final
// guest memory is independent of worker interleaving and must equal the
// simulator's committed state for pure task bodies — the property the
// backend differential tests pin down.
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
//
// Runtime is its own scheduler, with a worker goroutine per core; for a
// window of commits it runs one at a time when that commits faster.
package rt

import (
	"errors"
	"fmt"
	"math"
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
// same phased-machine surface as core.Machine (SetProgram, RunPhase,
// EnqueueRootDesc, Snapshot, ...), so backend.New builds and programs
// both engines through one sequence. Like the machine it runs one
// program, phase by phase.
//
// Runtime is also its own task unit and commit queue (sched.go): one
// timestamp-ordered ready queue feeding worker goroutines, one running
// slot per worker, and a bounded commit queue drained strictly in
// virtual-time order. One mutex guards them all; tasks execute outside
// the lock, so the lock only serializes dispatch and commit — the
// runtime's software stand-in for the simulator's per-tile task units
// and GVT-gated commit queues. A worker takes the lock once per task:
// next retires its finished attempt and hands it the next task in one
// critical section.
type Runtime struct {
	base   *mem.Memory
	heap   *mem.Allocator
	heapMu sync.Mutex
	store  *store

	fns     []guest.TaskFn
	fnNames []string

	inPhase bool // a RunPhase is running
	phase   int  // RunPhase calls so far: the running phase's index
	wallNS  uint64

	// cfg, read-only in a phase, keeps the fields a running task reads
	// (store, fns) off the cache lines that the lock's holder writes.
	cfg core.Config

	mu sync.Mutex
	// cond holds the waiting workers: the idle ones, and those a solo
	// window keeps out. A worker that takes a task while more work is
	// runnable wakes one with Signal, which does the same, so new work
	// fans out one wakeup at a time. Only draining or poisoning the phase
	// wakes them all.
	cond sync.Cond
	// solo is the current window's mode, and trial marks a window that
	// re-measures the mode not kept. window counts the windows before
	// it, which began at winStart, ends at commit winEnd and has
	// committed winOps operations. perOp is the kept mode's last time
	// per operation in ns; the next re-measure is window recheck, gap
	// windows after the last.
	solo, trial            bool
	window, winEnd, winOps uint64
	recheck, gap           uint64
	winStart               time.Time
	perOp                  float64

	// ready holds runnable tasks.
	ready readyQueue
	// running[w] is worker w's dispatched, not-yet-finished attempt, or
	// nil.
	running []*task
	// commitQ holds executed tasks awaiting their turn to validate and
	// commit in virtual-time order.
	commitQ taskHeap
	// commitCap is the commit queue's capacity, the simulator's
	// CommitQPerCore x Cores (math.MaxInt under UnboundedQueues). A full
	// queue admits only tasks that precede its head (§4.7).
	commitCap int
	// peakCommitQ is the commit queue's high-water mark.
	peakCommitQ int
	// envs holds recycled attempt buffers, and free heads a list of
	// recycled and not yet used task records linked through task.next.
	envs []*taskEnv
	free *task

	// conservative restricts dispatch to tasks at the minimum uncommitted
	// timestamp (level-synchronous waves): no task runs ahead of virtual
	// time, so aborts only come from same-timestamp conflicts.
	conservative bool

	seqCtr uint64
	done   bool
	err    error

	commits, aborts uint64
	// enqueues counts committed children, not root injections: as in the
	// simulator, only a task's enqueue is a task event.
	enqueues, dequeues uint64
}

// New builds a native runtime for cfg, parked at its initial quiescent
// point. cfg.Backend "rt-conservative" selects the conservative variant
// and names the run in Stats; cfg.Cores() bounds worker parallelism from
// above; cfg.CommitQPerCore x cfg.Cores() bounds the software commit
// queue, as in the simulated machine, unless cfg.UnboundedQueues;
// cfg.DebugChecks enables the commit-time purity re-execution check.
func New(cfg core.Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:          cfg,
		base:         mem.New(),
		heap:         mem.NewAllocator(),
		running:      make([]*task, cfg.Cores()),
		commitCap:    cfg.CommitQPerCore * cfg.Cores(),
		conservative: cfg.Backend == "rt-conservative",
	}
	if cfg.UnboundedQueues {
		r.commitCap = math.MaxInt
	}
	r.store = newStore(r.base)
	r.cond.L = &r.mu
	return r, nil
}

// SetProgram installs the guest function table. Must be called before
// the first RunPhase.
func (r *Runtime) SetProgram(ft *guest.FnTable) { r.fns, r.fnNames = ft.Fns(), ft.Names() }

// Mem returns the guest memory. Commits and the earliest attempt store
// into it in place, and a failed phase rolls back an uncommitted earliest
// attempt's stores, so between phases (and before/after the run) it holds
// exactly the committed state; during a phase the workers read and write
// it, and nothing else may access it.
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
	r.mu.Lock()
	r.enqueueLocked(d)
	r.mu.Unlock()
}

// QueuedTasks returns the number of runnable queued tasks.
func (r *Runtime) QueuedTasks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready.len()
}

// RunPhase drains all queued tasks (and their transitive children) to
// quiescence on cfg.Cores() worker goroutines, in a fresh controller
// window, and reports the phase. Each commit has already stored its words
// in guest memory, so a phase that fails leaves its committed prefix
// there too.
func (r *Runtime) RunPhase() (core.PhaseStats, error) {
	if r.inPhase {
		return core.PhaseStats{}, errors.New("rt: RunPhase re-entered mid-phase")
	}
	if r.err != nil {
		return core.PhaseStats{}, r.err
	}
	r.inPhase = true
	r.phase++
	start := r.Snapshot()

	r.store.beginPhase()
	t0 := time.Now()
	r.mu.Lock()
	r.done = false
	r.winStart, r.winEnd, r.winOps = t0, r.commits+modeWindow, 0
	r.mu.Unlock()
	var wg sync.WaitGroup
	for w := range r.cfg.Cores() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(w)
		}()
	}
	wg.Wait()
	r.wallNS += uint64(time.Since(t0))
	r.inPhase = false
	if r.err != nil {
		return core.PhaseStats{}, r.err
	}
	return core.PhaseOf(r.phase, start, r.Snapshot()), nil
}

// Snapshot returns cumulative run statistics in the shared Stats shape.
// Simulator-only fields (Cycles, cache, NoC, occupancies) stay zero; the
// native metric is WallNS.
func (r *Runtime) Snapshot() core.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return core.Stats{
		Backend:  r.cfg.Backend,
		Cores:    r.cfg.Cores(),
		Tiles:    r.cfg.Tiles,
		WallNS:   r.wallNS,
		Commits:  r.commits,
		Aborts:   r.aborts,
		Enqueues: r.enqueues,
		Dequeues: r.dequeues,
		Mapper:   r.cfg.Mapper,
	}
}

// work is worker w's loop: take a task, run one attempt of it outside the
// scheduler lock, and hand it back when taking the next. A panicking
// attempt goes through suspected-misspeculation triage instead.
func (r *Runtime) work(w int) {
	var finished *task
	for {
		t := r.next(w, finished)
		if t == nil {
			return
		}
		finished = nil
		if panicked, pval := r.runBody(t.desc.Fn, t.env); panicked {
			r.handlePanic(w, t, pval)
			continue
		}
		finished = t
	}
}

// runBody invokes guest function fn, capturing any panic.
func (r *Runtime) runBody(fn guest.FnID, env *taskEnv) (panicked bool, pval any) {
	defer func() {
		if v := recover(); v != nil {
			panicked, pval = true, v
		}
	}()
	r.fns[fn](env)
	return false, nil
}

// recheckLocked is the DebugChecks purity check: re-execute a validated
// task against committed state at its commit point and require the same
// writes, children, and frees. Validation guarantees the re-execution
// observes the values the attempt read, so for a task that is a pure
// function of guest memory the outcomes must match; divergence means the
// body consults state outside guest memory (host globals, captured
// variables, map iteration order) and would behave differently across
// backends. An in-place attempt's writes first go back to its buffer
// (unplace), for its commit to re-apply; the re-execution is tracked, so
// it buffers its own. Attempts that called Alloc are skipped — allocation
// is host state by design, so re-running it cannot be compared.
func (r *Runtime) recheckLocked(t *task) error {
	if t.env.allocd {
		return nil
	}
	t.env.unplace()
	env := r.getEnvLocked(t.desc)
	defer r.putEnvLocked(env)
	if panicked, pval := r.runBody(t.desc.Fn, env); panicked {
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
