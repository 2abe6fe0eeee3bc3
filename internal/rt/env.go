package rt

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
)

// opCap bounds the operations one task attempt may issue. Inconsistent
// speculative reads (a task observing words from two different commits)
// can send pure guest code into a loop that committed state would never
// produce; the cap converts the loop into an abort. The budget is far
// above any legitimate task (the suite's tasks issue tens of operations;
// serial-grade bodies run millions), so tripping it from a *valid* read
// set is reported as a genuine runaway instead of retried forever.
const opCap = 1 << 24

// opCapPanic is the sentinel thrown when a task attempt exhausts opCap.
type opCapPanic struct{}

// taskEnv implements guest.TaskEnv for one task attempt: reads come from
// the committed store (recorded in the read set), writes and child
// enqueues stay buffered until commit. The DebugChecks commit-time
// re-execution uses a second taskEnv and compares the buffered write,
// child and free sets for divergence.
//
// A taskEnv is an attempt buffer the scheduler recycles: it takes one from
// its free list at dispatch, and gets it back when the attempt commits or
// aborts. While the attempt runs it belongs to one worker goroutine, and
// nothing here locks; from the attempt's finish to its commit or abort
// only the scheduler, under its lock, reads it. The sets are slices that
// keep their capacity across attempts, so a steady-state attempt
// allocates nothing.
type taskEnv struct {
	r    *Runtime
	desc guest.TaskDesc

	// reads holds each address the attempt read from the store, in
	// first-read order; readRecs[i] is what reads.addrs[i] returned.
	reads    addrSet
	readRecs []readRec
	// writes holds each written address in first-write order, which
	// makes commits deterministic; writeVals[i] is its latest value.
	writes    addrSet
	writeVals []uint64
	children  []guest.TaskDesc
	frees     []span
	ops       uint64
	forks     uint64 // fork indices handed out by this attempt
	allocd    bool   // the attempt called Alloc (see Runtime.recheckLocked)
}

// readRec is the first value and version a task observed at an address.
// Later loads of the same address return the cached value, so a task can
// never see two versions of one word (repeatable reads); cross-address
// inconsistency is caught by commit validation, the panic path, or the op
// cap.
type readRec struct {
	val, ver uint64
}

type span struct {
	addr, n uint64
}

// indexAt is the set size up to which addrSet searches linearly. Almost
// every task touches a handful of words, and scanning a few contiguous
// addresses beats hashing; larger sets build an index map.
const indexAt = 32

// addrSet is an insertion-ordered set of guest addresses.
type addrSet struct {
	addrs []uint64
	index map[uint64]int // built once len(addrs) exceeds indexAt
}

// find returns addr's position, or -1.
func (a *addrSet) find(addr uint64) int {
	if len(a.addrs) <= indexAt {
		for i, x := range a.addrs {
			if x == addr {
				return i
			}
		}
		return -1
	}
	if i, ok := a.index[addr]; ok {
		return i
	}
	return -1
}

// add appends addr, which must not be in the set.
func (a *addrSet) add(addr uint64) {
	a.addrs = append(a.addrs, addr)
	switch n := len(a.addrs); {
	case n == indexAt+1:
		if a.index == nil {
			a.index = make(map[uint64]int)
		}
		for i, x := range a.addrs {
			a.index[x] = i
		}
	case n > indexAt+1:
		a.index[addr] = n - 1
	}
}

func (a *addrSet) reset() {
	if len(a.addrs) > indexAt {
		clear(a.index)
	}
	a.addrs = a.addrs[:0]
}

func newTaskEnv(r *Runtime, desc guest.TaskDesc) *taskEnv {
	return &taskEnv{r: r, desc: desc}
}

// reset empties the buffers for a new attempt of desc.
func (e *taskEnv) reset(desc guest.TaskDesc) {
	e.desc = desc
	e.reads.reset()
	e.readRecs = e.readRecs[:0]
	e.writes.reset()
	e.writeVals = e.writeVals[:0]
	e.children = e.children[:0]
	e.frees = e.frees[:0]
	e.ops, e.forks, e.allocd = 0, 0, false
}

func (e *taskEnv) step(n uint64) {
	e.ops += n
	if e.ops > opCap {
		panic(opCapPanic{})
	}
}

// Load implements guest.Env: read-own-writes, then the read cache, then
// the committed store (recording the observed version).
func (e *taskEnv) Load(addr uint64) uint64 {
	e.step(1)
	if i := e.writes.find(addr); i >= 0 {
		return e.writeVals[i]
	}
	if i := e.reads.find(addr); i >= 0 {
		return e.readRecs[i].val
	}
	val, ver := e.r.store.read(addr)
	e.reads.add(addr)
	e.readRecs = append(e.readRecs, readRec{val: val, ver: ver})
	return val
}

// Store implements guest.Env: buffered until commit.
func (e *taskEnv) Store(addr, val uint64) {
	e.step(1)
	if !mem.WordAligned(addr) {
		panic(fmt.Sprintf("mem: misaligned store at %#x", addr))
	}
	if i := e.writes.find(addr); i >= 0 {
		e.writeVals[i] = val
		return
	}
	e.writes.add(addr)
	e.writeVals = append(e.writeVals, val)
}

// Work implements guest.Env. The native runtime executes for real, so
// modeled compute cycles cost nothing here; they still count against the
// op cap so a loop spinning on Work alone cannot livelock an attempt.
func (e *taskEnv) Work(n uint64) { e.step(n) }

// Alloc implements guest.Env. Allocation is shared mutable host state,
// so it is mutex-guarded; an aborted attempt leaks its allocations (the
// idealized allocator never reuses a speculatively handed-out region, so
// the leak is benign). Note that in-task allocation makes addresses
// depend on speculative interleaving — none of the suite's Swarm task
// bodies allocate (layout happens in Build), and programs that want
// backend-identical final memory must keep it that way.
func (e *taskEnv) Alloc(n uint64) uint64 {
	e.step(1)
	e.allocd = true
	e.r.heapMu.Lock()
	defer e.r.heapMu.Unlock()
	return e.r.heap.Alloc(n)
}

// Free implements guest.Env: deferred to commit, as the task-aware
// allocator requires (speculatively freed memory is never reused).
func (e *taskEnv) Free(addr, n uint64) {
	e.step(1)
	e.frees = append(e.frees, span{addr: addr, n: n})
}

// Timestamp implements guest.TaskEnv.
func (e *taskEnv) Timestamp() uint64 { return e.desc.TS }

// Arg implements guest.TaskEnv.
func (e *taskEnv) Arg(i int) uint64 { return e.desc.Args[i] }

// Enqueue implements guest.TaskEnv.
func (e *taskEnv) Enqueue(fn guest.FnID, ts uint64, args ...uint64) {
	var a [3]uint64
	if len(args) > len(a) {
		panic("guest: task descriptors hold at most 3 argument words; allocate memory for more (§4.1)")
	}
	copy(a[:], args)
	e.EnqueueArgs(fn, ts, a)
}

// EnqueueArgs implements guest.TaskEnv: children are buffered and become
// runnable only when the parent commits, so a misspeculated parent's
// children never exist and aborts cannot cascade. Children inherit the
// parent's nested path, keeping them inside its slice of the slot.
func (e *taskEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	if ts < e.desc.TS {
		panic(fmt.Sprintf("guest: child timestamp %d before parent %d", ts, e.desc.TS))
	}
	e.step(1)
	e.children = append(e.children, guest.TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args})
}

// EnqueueHinted implements guest.TaskEnv. Spatial hints steer the
// simulator's tile mappers; the native scheduler places work by virtual
// time only, so the hint is carried but unused.
func (e *taskEnv) EnqueueHinted(fn guest.FnID, ts uint64, hint uint64, args [3]uint64) {
	if ts < e.desc.TS {
		panic(fmt.Sprintf("guest: child timestamp %d before parent %d", ts, e.desc.TS))
	}
	e.step(1)
	e.children = append(e.children, guest.TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args}.WithHint(hint))
}

// Fork implements guest.TaskEnv: a child ordered within the parent's
// timestamp slot, after previously forked siblings.
func (e *taskEnv) Fork(fn guest.FnID, args ...uint64) {
	var a [3]uint64
	if len(args) > len(a) {
		panic("guest: task descriptors hold at most 3 argument words; allocate memory for more (§4.1)")
	}
	copy(a[:], args)
	e.EnqueueSub(fn, guest.NoHint, a)
}

// EnqueueSub implements guest.TaskEnv. Fork indices restart at zero on
// every attempt (each attempt starts from a reset taskEnv), so a retried
// task buffers an identical child set — which the DebugChecks
// re-execution comparison requires.
func (e *taskEnv) EnqueueSub(fn guest.FnID, hint uint64, args [3]uint64) {
	e.step(1)
	d := guest.TaskDesc{Fn: fn, TS: e.desc.TS, Path: e.desc.Path.Child(e.forks), Args: args}
	e.forks++
	if hint != guest.NoHint {
		d = d.WithHint(hint)
	}
	e.children = append(e.children, d)
}
