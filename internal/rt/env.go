package rt

import (
	"fmt"
	"math/bits"

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
// addresses beats hashing; larger sets build a hash index.
const indexAt = 32

// addrSet is an insertion-ordered set of guest addresses.
type addrSet struct {
	addrs []uint64
	// slots indexes addrs once the set outgrows indexAt: an open-
	// addressing table with linear probing whose slots hold a position in
	// addrs plus one, or 0 when empty. Its length is a power of two at
	// least twice the set's, 1<<(64-shift). It keeps that length across
	// resets, and reset empties only the slots the set filled, so a small
	// set costs the same after a recycled buffer once held a large one.
	slots []int32
	shift uint
}

// home returns addr's first probe slot (Fibonacci hashing).
func (a *addrSet) home(addr uint64) int {
	return int(addr * 0x9E3779B97F4A7C15 >> a.shift)
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
	mask := len(a.slots) - 1
	for j := a.home(addr); ; j = (j + 1) & mask {
		p := a.slots[j]
		if p == 0 {
			return -1
		}
		if a.addrs[p-1] == addr {
			return int(p - 1)
		}
	}
}

// add appends addr, which must not be in the set.
func (a *addrSet) add(addr uint64) {
	a.addrs = append(a.addrs, addr)
	n := len(a.addrs)
	switch {
	case n <= indexAt:
		return
	case 2*n > len(a.slots):
		// Grow to a quarter full.
		k := uint(bits.Len(uint(4*n - 1)))
		a.slots, a.shift = make([]int32, 1<<k), 64-k
	case n > indexAt+1:
		a.insert(n - 1)
		return
	}
	// The table is new, or the set just outgrew the linear search.
	for i := range a.addrs {
		a.insert(i)
	}
}

// insert indexes addrs[i].
func (a *addrSet) insert(i int) {
	mask := len(a.slots) - 1
	j := a.home(a.addrs[i])
	for a.slots[j] != 0 {
		j = (j + 1) & mask
	}
	a.slots[j] = int32(i + 1)
}

// reset empties the set in time proportional to its size: each indexed
// address's slot lies on its probe path, past slots that may already be
// emptied.
func (a *addrSet) reset() {
	if len(a.addrs) > indexAt {
		mask := len(a.slots) - 1
		for i, addr := range a.addrs {
			j := a.home(addr)
			for a.slots[j] != int32(i+1) {
				j = (j + 1) & mask
			}
			a.slots[j] = 0
		}
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
	e.EnqueueArgs(fn, ts, guest.PackArgs(args))
}

// EnqueueArgs implements guest.TaskEnv: children are buffered and become
// runnable only when the parent commits, so a misspeculated parent's
// children never exist and aborts cannot cascade. Children inherit the
// parent's nested path, keeping them inside its slice of the slot.
func (e *taskEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	guest.CheckChildTS(ts, e.desc.TS)
	e.step(1)
	e.children = append(e.children, guest.TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args})
}

// EnqueueHinted implements guest.TaskEnv. Spatial hints steer the
// simulator's tile mappers; the native scheduler places work by virtual
// time only, so the hint is carried but unused.
func (e *taskEnv) EnqueueHinted(fn guest.FnID, ts uint64, hint uint64, args [3]uint64) {
	guest.CheckChildTS(ts, e.desc.TS)
	e.step(1)
	e.children = append(e.children, guest.TaskDesc{Fn: fn, TS: ts, Path: e.desc.Path, Args: args}.WithHint(hint))
}

// Fork implements guest.TaskEnv: a child ordered within the parent's
// timestamp slot, after previously forked siblings.
func (e *taskEnv) Fork(fn guest.FnID, args ...uint64) {
	e.EnqueueSub(fn, guest.NoHint, guest.PackArgs(args))
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
