package core

import (
	"container/heap"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/sim"
	"github.com/swarm-sim/swarm/internal/tsdom"
	"github.com/swarm-sim/swarm/internal/vt"
)

// taskState tracks a task through its lifetime (Fig 4 plus two transients:
// FINISHING covers a finished task stalled waiting for a commit queue entry,
// KILLED marks a discarded child of an aborted parent).
type taskState uint8

const (
	taskIdle taskState = iota
	taskRunning
	taskFinishing // finished execution, waiting for a commit queue entry
	taskFinished  // holds a commit queue entry
	taskCommitted
	taskKilled
)

func (s taskState) String() string {
	return [...]string{"idle", "running", "finishing", "finished", "committed", "killed"}[s]
}

// kinds of pseudo-tasks used by the queue-virtualization mechanism (§4.7).
type taskKind uint8

const (
	kindWorker   taskKind = iota
	kindSplitter          // re-enqueues a batch of spilled task descriptors
)

type undoRec struct {
	addr uint64
	old  uint64
}

// pendKind tells the task's pre-bound event callback (taskEvent) what the
// scheduled event means. The machine schedules every per-task event through
// task.evFn instead of a fresh closure, so the hot path allocates nothing.
type pendKind uint8

const (
	pendStart    pendKind = iota // dequeue delay elapsed: start the body
	pendResume                   // resume the guest with Result{Val: pendVal}
	pendResumeOK                 // resume the guest with Result{OK: true}
	pendFinish                   // finish delay elapsed: move to commit queue
	pendEnqRetry                 // enqueue-NACK backoff expired: retry pendDesc
)

// vt0 is the zero virtual time (undispatched).
var vt0 vt.Time

// task is one task-queue entry plus all speculative state Swarm associates
// with the task (Fig 6): read/write signatures, undo log and children
// pointers. The entry keeps its identity from creation to commit.
type task struct {
	desc  guest.TaskDesc
	kind  taskKind
	state taskState
	tile  int // owning tile (task queue position)
	seq   uint64

	vt vt.Time // unique virtual time, assigned at dispatch

	parent   *task
	children []*task

	rs, ws *bloom.Filter
	undo   []undoRec

	co        *guest.Coroutine
	core      int // core running/holding the task, -1 otherwise
	lastCore  int // last core that executed the task (cycle attribution)
	cyc       uint64
	pendingEv *sim.Event
	inBackoff bool // parked in an enqueue-NACK retry loop

	// Pre-bound event callback plus the pending-event payload it decodes;
	// see pendKind. evFn is built once in newTask and reused for every
	// event the task schedules.
	evFn        func()
	pend        pendKind
	pendVal     uint64
	pendDesc    guest.TaskDesc
	pendAttempt int

	// splitter payload: id of the spilled batch in Machine.spillStore.
	batch uint64

	allocToken uint64

	heapIdx int    // position in the tile's order queue, -1 when not idle
	cqIdx   int    // position in the tile's commitQ or finishWait heap, -1 otherwise
	qSeq    uint64 // order of entry into that queue (conflict-probe order)

	// Way-0 index state: the tile slot id held while dispatched, and the
	// way-0 bit indexes this task's signature inserts set (so releaseSlot
	// can clear exactly those bitmap bits).
	slot    int32
	ws0Bits []uint32
	rs0Bits []uint32

	graveEv uint64 // engine event count when the task was freed (recycling age)
}

// spec reports whether the task runs speculatively. Splitters (and the
// coalescer pseudo-task) are non-speculative: they touch only runtime
// metadata, perform no conflict-checked accesses, and cannot abort.
func (t *task) spec() bool { return t.kind == kindWorker }

// boundVT returns the virtual time used for GVT purposes: dispatched tasks
// use their unique virtual time; idle tasks use (timestamp, path, now,
// tile) (§4.6).
func (t *task) boundVT(now uint64) vt.Time {
	if t.state != taskIdle {
		return t.vt
	}
	return descBoundVT(t.desc.TS, t.desc.Path, now, t.tile)
}

// orderQueue is the tile's order queue (§4.2): it finds the highest-priority
// (smallest-timestamp) idle task. The hardware uses two small TCAMs with
// single-lookup dispatch; functionally it is a min-heap on (timestamp,
// arrival order) supporting removal (task dispatch, spill, or squash).
type orderQueue struct{ h taskHeap }

func (q *orderQueue) Len() int { return len(q.h) }

func (q *orderQueue) Push(t *task) { heap.Push(&q.h, t) }

// Min returns the smallest-timestamp idle task without removing it.
func (q *orderQueue) Min() *task {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Remove deletes the task from the queue (dispatch, spill, or discard).
func (q *orderQueue) Remove(t *task) {
	if t.heapIdx >= 0 {
		heap.Remove(&q.h, t.heapIdx)
		t.heapIdx = -1
	}
}

// descHeap is a min-heap of task descriptors ordered by (timestamp,
// nested path) — the memory-resident overflow buffer. The path joins the
// key because the heap head feeds the tile's GVT bound (tileMinVT): with
// a TS-only key a deeply-pathed head could hide an earlier-pathed
// descriptor below it, raising the bound past work that must still run.
type descHeap []guest.TaskDesc

func (h descHeap) Len() int { return len(h) }
func (h descHeap) Less(i, j int) bool {
	if h[i].TS != h[j].TS {
		return h[i].TS < h[j].TS
	}
	return tsdom.Less(h[i].Path, h[j].Path)
}
func (h descHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *descHeap) Push(x any)   { *h = append(*h, x.(guest.TaskDesc)) }
func (h *descHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// vtHeap is an intrusive min-heap of tasks keyed by unique virtual time:
// the tile's commit queue and finish-wait set (§4.2, §4.6). Tasks track
// their position in cqIdx, so removal on abort is O(log n) instead of the
// old linear slice scan, and the commit round pops ready tasks in virtual-
// time order instead of rescanning and re-sorting every queue. Virtual
// times are unique (§4.4), so the order is total and deterministic.
//
// The backing slice s is exported to callers that probe every element
// (conflict checks, max scans); heap order is not insertion order, so
// order-sensitive callers must re-establish it themselves (checkTile sorts
// probe victims by qSeq).
type vtHeap struct {
	s []*task
}

func (h *vtHeap) Len() int { return len(h.s) }

// Min returns the earliest-virtual-time task without removing it.
func (h *vtHeap) Min() *task {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0]
}

func (h *vtHeap) Push(t *task) {
	t.cqIdx = len(h.s)
	h.s = append(h.s, t)
	h.up(t.cqIdx)
}

// Remove detaches t from the heap; t must be a member.
func (h *vtHeap) Remove(t *task) {
	i := t.cqIdx
	if i < 0 || i >= len(h.s) || h.s[i] != t {
		panic("core: removing a task from a commit queue it is not in")
	}
	n := len(h.s) - 1
	if i != n {
		h.swap(i, n)
	}
	h.s[n] = nil
	h.s = h.s[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	t.cqIdx = -1
}

// PopMin removes and returns the earliest-virtual-time task.
func (h *vtHeap) PopMin() *task {
	t := h.s[0]
	h.Remove(t)
	return t
}

func (h *vtHeap) less(i, j int) bool { return h.s[i].vt.Less(h.s[j].vt) }

func (h *vtHeap) swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.s[i].cqIdx = i
	h.s[j].cqIdx = j
}

func (h *vtHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *vtHeap) down(i int) {
	n := len(h.s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.less(r, l) {
			small = r
		}
		if !h.less(small, i) {
			return
		}
		h.swap(i, small)
		i = small
	}
}

type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].desc.TS != h[j].desc.TS {
		return h[i].desc.TS < h[j].desc.TS
	}
	if c := tsdom.Compare(h[i].desc.Path, h[j].desc.Path); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.heapIdx = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIdx = -1
	*h = old[:n-1]
	return t
}
