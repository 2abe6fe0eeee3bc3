// Package guest runs guest code — Swarm task bodies and baseline thread
// bodies — against the simulated machine. Guest code is ordinary Go written
// against the Env interface; every architectural operation (load, store,
// compute, enqueue, ...) is surrendered to the simulator, which times it,
// applies it atomically, and resumes the guest.
//
// Two transports implement the surrender: Coroutine runs the guest on its
// own goroutine with a strict rendezvous per operation (used when several
// guests interleave: Swarm cores, baseline threads), and direct execution,
// where the simulator embeds an Env that applies operations inline (used
// for single-threaded serial baselines and the oracle profiler, which need
// no interleaving). Every engine's TaskEnv — the coroutine's, swarm-rt's
// attempt buffer, the oracle's profiler — embeds Attempt, the one
// implementation of §4.1's task rules.
//
// Guest code obeys a purity contract: between surrendered operations a
// body touches only coroutine-local state (locals, its Env, read-only
// captured data) — every machine-visible effect flows through a yielded
// Op. The contract is what makes simulations deterministic, and it is
// what lets the native runtime (internal/rt) re-execute a task body —
// after an abort, or under DebugChecks to compare a committed attempt
// against a fresh one — and get the same operations back.
package guest

import (
	"fmt"
	"iter"
	"sync"

	"github.com/swarm-sim/swarm/internal/tsdom"
)

// OpKind discriminates guest operations.
type OpKind int

const (
	// OpLoad reads the 64-bit word at Addr.
	OpLoad OpKind = iota
	// OpStore writes Val to the word at Addr.
	OpStore
	// OpWork models N cycles of non-memory instructions.
	OpWork
	// OpEnqueue creates a child task described by Task (Swarm only).
	OpEnqueue
	// OpAlloc allocates N bytes of guest memory; result is the address.
	OpAlloc
	// OpFree releases [Addr, Addr+N).
	OpFree
	// OpCAS compares the word at Addr with Old and, if equal, stores Val.
	// Result.OK reports success (thread mode only).
	OpCAS
	// OpFetchAdd atomically adds Val to the word at Addr and returns the
	// old value (thread mode only).
	OpFetchAdd
	// OpDone signals that the guest function returned.
	OpDone
	// OpAborted signals that the guest unwound after an abort.
	OpAborted
)

// FnID is a typed handle to a registered task function: architecturally
// the "function pointer" slot of a task descriptor (an index into the
// program's function table). Handles come from FnTable.Fn (named
// registration); the zero value names the first registered function, so
// single-function programs keep working with untyped literals.
type FnID int

// TaskDesc is an architectural task descriptor: function handle (an index
// into the program's function table), a 64-bit timestamp, and up to three
// 64-bit argument words (§4.1, Table 2). Hint optionally carries a spatial
// locality key for hint-based task mappers; it is metadata consumed by the
// task unit at enqueue time and costs nothing architecturally.
//
// Path is the nested fork vector ordering the task within its timestamp
// slot (see internal/tsdom): empty for flat tasks, extended one level per
// Fork/EnqueueSub. Plain enqueues inherit the parent's path verbatim, so
// a subtask's children stay inside its slice of the slot.
type TaskDesc struct {
	Fn   FnID
	TS   uint64
	Path tsdom.Path
	Hint uint64 // spatial key + 1; 0 = no hint (see WithHint/HintKey)
	Args [3]uint64
}

// WithHint returns the descriptor tagged with a spatial hint key: a stable
// application-level locality handle (destination vertex, warehouse, stream
// source) that hint-based mappers use to pick the task's home tile.
func (d TaskDesc) WithHint(key uint64) TaskDesc {
	d.Hint = key + 1
	return d
}

// HintKey returns the spatial hint key and whether one was set.
func (d TaskDesc) HintKey() (uint64, bool) {
	if d.Hint == 0 {
		return 0, false
	}
	return d.Hint - 1, true
}

// Compare orders two descriptors by (timestamp, nested path), the
// descriptor-level prefix of the virtual-time order: -1 if d runs before
// o, +1 if after, 0 if they share a slot and path. Every queue that ranks
// descriptors before they have a virtual time uses it.
func (d TaskDesc) Compare(o TaskDesc) int {
	if d.TS != o.TS {
		if d.TS < o.TS {
			return -1
		}
		return +1
	}
	return tsdom.Compare(d.Path, o.Path)
}

// Op is one operation surrendered by a guest.
type Op struct {
	Kind OpKind
	Addr uint64
	Val  uint64
	Old  uint64 // OpCAS expected value
	N    uint64 // OpWork cycles / OpAlloc+OpFree size
	Task TaskDesc
}

// Result is the simulator's reply to an Op.
type Result struct {
	Val   uint64
	OK    bool
	Abort bool // unwind the guest now (speculative task squashed)
}

// Env is the architectural interface guest code runs against. All guest
// data lives in simulated memory; all costs flow through these calls.
type Env interface {
	// Load returns the 64-bit word at the (8-byte aligned) address.
	Load(addr uint64) uint64
	// Store writes the 64-bit word at the (8-byte aligned) address.
	Store(addr, val uint64)
	// Work charges n cycles of non-memory instructions.
	Work(n uint64)
	// Alloc returns the address of a fresh n-byte guest region.
	Alloc(n uint64) uint64
	// Free releases an allocation (task-aware: reuse happens only after
	// the freeing task commits).
	Free(addr, n uint64)
}

// TaskEnv is the environment visible to a Swarm task (§4.1's API:
// taskFn(timestamp, args...) plus enqueueTask).
type TaskEnv interface {
	Env
	// Timestamp returns the task's programmer-assigned timestamp.
	Timestamp() uint64
	// Arg returns the i-th argument word (i < 3).
	Arg(i int) uint64
	// Enqueue creates a child task with an equal or later timestamp.
	Enqueue(fn FnID, ts uint64, args ...uint64)
	// EnqueueArgs is Enqueue with a fixed argument array. Variadic calls
	// through the TaskEnv interface heap-allocate their argument slice (the
	// compiler cannot prove the callee drops it), so per-edge enqueue loops
	// use this form; unused argument words are zero.
	EnqueueArgs(fn FnID, ts uint64, args [3]uint64)
	// EnqueueHinted is EnqueueArgs plus a spatial hint key (see
	// TaskDesc.WithHint): hint-based mappers send the child to the key's
	// home tile; other mappers ignore it. The hint is free — it adds no
	// instructions, memory accesses or descriptor-transfer cost.
	EnqueueHinted(fn FnID, ts uint64, hint uint64, args [3]uint64)
	// Fork creates a child ordered *within* this task's timestamp slot:
	// the child runs at the same timestamp with the task's path extended
	// by the next fork index, so it orders after this task (and after all
	// previously forked siblings with their whole subtrees) but before
	// anything this task's slot precedes. Fork indices restart at zero on
	// every (re-)execution of the body, so an aborted-and-retried task
	// forks an identical subtree.
	Fork(fn FnID, args ...uint64)
	// EnqueueSub is Fork with a fixed argument array (see EnqueueArgs for
	// why) plus an optional spatial hint key; hint = NoHint leaves the
	// child unhinted.
	EnqueueSub(fn FnID, hint uint64, args [3]uint64)
}

// NoHint marks an EnqueueSub child with no spatial hint key.
const NoHint = ^uint64(0)

// MaxChildren is the hardware limit on the children one task attempt may
// enqueue, forks included (§4.1): the commit queue keeps a pointer to
// each so an abort can find them.
const MaxChildren = 8

// Attempt implements the task side of TaskEnv once for every engine:
// argument packing, the child-timestamp check, nested-path inheritance,
// per-attempt fork numbering, hint tagging and the MaxChildren limit
// (§4.1). An engine's TaskEnv embeds it beside its memory operations,
// calls Begin at the start of every attempt, and takes each accepted
// child through its ChildSink, so every engine rejects the same programs.
type Attempt struct {
	desc     TaskDesc
	forks    uint64 // fork indices handed out by this attempt
	children int    // children accepted by this attempt, forks included
	sink     ChildSink
}

// ChildSink takes the children an Attempt accepts, in enqueue order.
type ChildSink interface {
	AddChild(d TaskDesc)
}

// Begin starts an attempt of desc whose children go to sink. Fork
// indices restart at zero, so a retried task forks an identical subtree.
// Fields are assigned one by one: a struct literal would zero and copy a
// temporary, and swarm-rt calls Begin under its scheduler lock.
func (a *Attempt) Begin(desc TaskDesc, sink ChildSink) {
	a.desc, a.forks, a.children, a.sink = desc, 0, 0, sink
}

func (a *Attempt) Timestamp() uint64 { return a.desc.TS }
func (a *Attempt) Arg(i int) uint64  { return a.desc.Args[i] }

func (a *Attempt) Enqueue(fn FnID, ts uint64, args ...uint64) {
	a.EnqueueArgs(fn, ts, packArgs(args))
}

func (a *Attempt) EnqueueArgs(fn FnID, ts uint64, args [3]uint64) {
	a.admit(ts)
	a.sink.AddChild(TaskDesc{Fn: fn, TS: ts, Path: a.desc.Path, Args: args})
}

func (a *Attempt) EnqueueHinted(fn FnID, ts uint64, hint uint64, args [3]uint64) {
	a.admit(ts)
	a.sink.AddChild(TaskDesc{Fn: fn, TS: ts, Path: a.desc.Path, Args: args}.WithHint(hint))
}

func (a *Attempt) Fork(fn FnID, args ...uint64) {
	a.EnqueueSub(fn, NoHint, packArgs(args))
}

func (a *Attempt) EnqueueSub(fn FnID, hint uint64, args [3]uint64) {
	d := TaskDesc{Fn: fn, TS: a.desc.TS, Path: a.desc.Path.Child(a.forks), Args: args}
	a.forks++
	if hint != NoHint {
		d = d.WithHint(hint)
	}
	a.admit(d.TS)
	a.sink.AddChild(d)
}

// admit counts a child at ts under §4.1's rules. It inlines, so each
// enqueue method builds its child straight into the sink call.
func (a *Attempt) admit(ts uint64) {
	if ts < a.desc.TS || a.children >= MaxChildren {
		a.reject(ts)
	}
	a.children++
}

// reject panics with the rule a child at ts breaks.
func (a *Attempt) reject(ts uint64) {
	if ts < a.desc.TS {
		panic(fmt.Sprintf("guest: child timestamp %d before parent %d", ts, a.desc.TS))
	}
	panic(fmt.Sprintf("guest: task exceeded the %d-child hardware limit; enqueue a spawner task instead (§4.1)", MaxChildren))
}

// packArgs copies an Enqueue or Fork argument list into a descriptor's
// argument words; a task that needs more allocates memory for them.
func packArgs(args []uint64) (a [3]uint64) {
	if len(args) > len(a) {
		panic("guest: task descriptors hold at most 3 argument words; allocate memory for more (§4.1)")
	}
	copy(a[:], args)
	return a
}

// ThreadEnv is the environment visible to a software-baseline thread.
type ThreadEnv interface {
	Env
	// ID returns the thread id, in [0, Threads()).
	ID() int
	// Threads returns the thread count.
	Threads() int
	// CAS atomically compares-and-swaps the word at addr.
	CAS(addr, old, new uint64) bool
	// FetchAdd atomically adds delta and returns the previous value.
	FetchAdd(addr, delta uint64) uint64
}

// TaskFn is a Swarm task body.
type TaskFn func(TaskEnv)

// ThreadFn is a baseline thread body.
type ThreadFn func(ThreadEnv)

// abortSignal unwinds a guest goroutine when its task is squashed.
type abortSignal struct{}

// Coroutine runs one guest body with a strict one-(Result, Op)-pair-per-
// Resume rendezvous. The transport is iter.Pull: the runtime switches
// stacks directly (no scheduler, no channels, no locks), which is an order
// of magnitude cheaper per surrendered operation than a goroutine
// rendezvous and keeps the whole simulation on one OS thread.
//
// Task coroutines are pooled: the pulled iterator survives its task body
// and parks until a later StartTask hands it the next one (tasks are tiny
// and every re-execution after an abort restarts the body, so per-start
// coroutine and environment allocations dominated the machine's host-side
// cost). Thread coroutines (StartThread) live exactly as long as their
// body.
type Coroutine struct {
	next    func() (Op, bool)
	stop    func()
	yieldFn func(Op) bool // set by the sequence body on first entry

	// res carries the simulator's reply into the guest: Resume writes it,
	// then switches to the guest, which reads it on return from yield.
	res Result

	// job carries the next task body into a pooled coroutine: StartTask
	// writes it before the first Resume switches in.
	job    taskJob
	pooled bool
	env    coTaskEnv // reusable task environment (pooled coroutines only)
	done   bool
}

// taskJob is one task body handed to a pooled coroutine.
type taskJob struct {
	fn   TaskFn
	desc TaskDesc
}

// taskPool parks idle task coroutines. It is shared by every machine in
// the process (the experiment harness runs many concurrently), so access
// is mutex-guarded; within one machine everything is single-threaded.
var taskPool struct {
	sync.Mutex
	free []*Coroutine
}

// StartTask hands a Swarm task body to a pooled coroutine (reusing a
// parked one when available); the body starts running at the first Resume.
func StartTask(fn TaskFn, desc TaskDesc) *Coroutine {
	taskPool.Lock()
	var co *Coroutine
	if n := len(taskPool.free); n > 0 {
		co = taskPool.free[n-1]
		taskPool.free[n-1] = nil
		taskPool.free = taskPool.free[:n-1]
	}
	taskPool.Unlock()
	if co == nil {
		co = &Coroutine{pooled: true}
		co.env = coTaskEnv{coEnv: coEnv{co: co}}
		co.next, co.stop = iter.Pull(co.taskSeq)
	}
	co.done = false
	co.job = taskJob{fn, desc}
	return co
}

// taskSeq is a pooled coroutine's op stream: an endless loop of task
// bodies, one OpDone/OpAborted per body, parking between bodies simply by
// returning from yield into the next loop iteration.
func (co *Coroutine) taskSeq(yield func(Op) bool) {
	co.yieldFn = yield
	for {
		j := co.job
		co.env.Begin(j.desc, &co.env)
		if runGuest(func() { j.fn(&co.env) }) {
			if !yield(Op{Kind: OpAborted}) {
				return
			}
		} else if !yield(Op{Kind: OpDone}) {
			return
		}
	}
}

// runGuest executes a guest body, converting an abort unwind into a
// boolean. Any other panic propagates.
func runGuest(body func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	body()
	return false
}

// Recycle parks a completed task coroutine for reuse by a later StartTask.
// It is a no-op for thread coroutines and for coroutines that have not
// finished (a machine torn down mid-run keeps them; the GC collects
// unreferenced pulled iterators).
func (co *Coroutine) Recycle() {
	if !co.pooled || !co.done {
		return
	}
	// Drop the finished body's closure so a parked coroutine does not keep
	// its machine's guest state reachable for the process lifetime.
	co.job = taskJob{}
	co.env.Attempt = Attempt{}
	taskPool.Lock()
	taskPool.free = append(taskPool.free, co)
	taskPool.Unlock()
}

// StartThread launches a coroutine running a baseline thread body.
func StartThread(fn ThreadFn, id, threads int) *Coroutine {
	co := &Coroutine{}
	env := &coThreadEnv{coEnv{co: co}, id, threads}
	co.next, co.stop = iter.Pull(func(yield func(Op) bool) {
		co.yieldFn = yield
		if runGuest(func() { fn(env) }) {
			yield(Op{Kind: OpAborted})
			return
		}
		yield(Op{Kind: OpDone})
	})
	return co
}

// Resume delivers a result to the guest and returns its next operation.
// After an Op of kind OpDone or OpAborted, Resume must not be called again.
func (co *Coroutine) Resume(r Result) Op {
	if co.done {
		panic("guest: Resume after completion")
	}
	co.res = r
	op, ok := co.next()
	if !ok {
		panic("guest: coroutine terminated without yielding")
	}
	if op.Kind == OpDone || op.Kind == OpAborted {
		co.done = true
	}
	return op
}

// Done reports whether the coroutine has finished (OpDone or OpAborted).
func (co *Coroutine) Done() bool { return co.done }

// coEnv implements Env over the rendezvous protocol.
type coEnv struct{ co *Coroutine }

func (e *coEnv) exec(op Op) Result {
	if !e.co.yieldFn(op) {
		// The puller was stopped: unwind the guest.
		panic(abortSignal{})
	}
	r := e.co.res
	if r.Abort {
		panic(abortSignal{})
	}
	return r
}

func (e *coEnv) Load(addr uint64) uint64 { return e.exec(Op{Kind: OpLoad, Addr: addr}).Val }
func (e *coEnv) Store(addr, val uint64)  { e.exec(Op{Kind: OpStore, Addr: addr, Val: val}) }
func (e *coEnv) Work(n uint64) {
	if n > 0 {
		e.exec(Op{Kind: OpWork, N: n})
	}
}
func (e *coEnv) Alloc(n uint64) uint64 { return e.exec(Op{Kind: OpAlloc, N: n}).Val }
func (e *coEnv) Free(addr, n uint64)   { e.exec(Op{Kind: OpFree, Addr: addr, N: n}) }

// coTaskEnv is a pooled coroutine's TaskEnv: each child its Attempt
// accepts is surrendered as an OpEnqueue.
type coTaskEnv struct {
	coEnv
	Attempt
}

// AddChild implements ChildSink.
func (e *coTaskEnv) AddChild(d TaskDesc) { e.exec(Op{Kind: OpEnqueue, Task: d}) }

type coThreadEnv struct {
	coEnv
	id, threads int
}

func (e *coThreadEnv) ID() int      { return e.id }
func (e *coThreadEnv) Threads() int { return e.threads }
func (e *coThreadEnv) CAS(addr, old, new uint64) bool {
	return e.exec(Op{Kind: OpCAS, Addr: addr, Old: old, Val: new}).OK
}
func (e *coThreadEnv) FetchAdd(addr, delta uint64) uint64 {
	return e.exec(Op{Kind: OpFetchAdd, Addr: addr, Val: delta}).Val
}
