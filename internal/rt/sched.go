package rt

import (
	"math"
	"math/bits"
	"sync"
	"time"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/vt"
)

// task is one schedulable unit. vt is its unique virtual time, the
// simulator's (timestamp, path, tiebreaker) order (§4.2) with a global
// enqueue sequence number as the tiebreaker (vt.Time's Cycle field).
// Roots take sequence numbers in setup order; children take them at their
// parent's commit. Commits happen strictly in vt order and children
// inherit sequence numbers from a deterministic commit sequence, so the
// total order — and with it the final guest memory — is independent of
// worker interleaving. vt is fixed at creation and survives aborts; env
// is the attempt buffer, held from dispatch until the attempt commits or
// aborts.
type task struct {
	desc guest.TaskDesc
	vt   vt.Time
	env  *taskEnv
	next *task // free-list link
}

// before reports whether a precedes b in virtual time. Timestamps
// decide most comparisons; testing them here, where the call inlines,
// spares those the out-of-line vt.Time.Less.
func before(a, b *task) bool {
	if a.vt.TS != b.vt.TS {
		return a.vt.TS < b.vt.TS
	}
	return a.vt.Less(b.vt)
}

// taskHeap is a binary min-heap of tasks by virtual time.
type taskHeap []*task

func (h *taskHeap) push(t *task) {
	q := append(*h, t)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(t, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = t
	*h = q
}

func (h *taskHeap) pop() *task {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q[n] = nil
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && before(q[c+1], q[c]) {
				c++
			}
			if !before(q[c], last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// bucketEntry is a bucketed task with its timestamp inline, so
// redistributing a bucket reads no task record.
type bucketEntry struct {
	ts uint64
	t  *task
}

// readyQueue holds runnable tasks in virtual-time order. Fresh flat tasks,
// nearly all the traffic, go to a monotone radix heap: bucket i holds the
// tasks whose timestamp first differs from last in bit i-1, so bucket 0
// holds exactly the tasks at timestamp last, and all tasks at one
// timestamp share a bucket in push order. enqueueLocked numbers tasks in
// push order, so bucket 0 is a FIFO already in (ts, seq) order. When it
// drains, the lowest occupied bucket's minimum timestamp becomes last and
// that bucket moves down. Pushes that could break the order — requeued
// aborts (older sequence numbers), pathed fork tasks (ordered by path
// first) and timestamps below last — go to the side heap, and min
// compares the two heads, so every caller sees the exact ready minimum.
type readyQueue struct {
	buckets [65][]bucketEntry
	head    int    // bucket 0's next entry
	last    uint64 // bucket 0's timestamp
	n       int    // bucketed tasks
	side    taskHeap
}

func (q *readyQueue) len() int { return q.n + len(q.side) }

// push admits a freshly numbered task. With the buckets empty, last moves
// to its timestamp, so a later phase's earlier roots are bucketed too.
func (q *readyQueue) push(t *task) {
	ts := t.vt.TS
	if q.n == 0 {
		q.last = ts
	}
	if len(t.vt.Path) != 0 || ts < q.last {
		q.side.push(t)
		return
	}
	i := bits.Len64(ts ^ q.last)
	b := q.buckets[i]
	if i == 0 && len(b) == cap(b) && 2*q.head >= len(b) {
		// Reuse the popped half of the FIFO instead of growing it.
		b = b[:copy(b, b[q.head:])]
		q.head = 0
	}
	q.buckets[i] = append(b, bucketEntry{ts, t})
	q.n++
}

// min returns the earliest ready task, or nil.
func (q *readyQueue) min() *task {
	var m *task
	if q.n > 0 {
		m = q.buckets[0][q.head].t
	}
	if len(q.side) > 0 && (m == nil || before(q.side[0], m)) {
		m = q.side[0]
	}
	return m
}

// pop removes and returns the earliest ready task; the queue must not be
// empty.
func (q *readyQueue) pop() *task {
	if q.n == 0 || len(q.side) > 0 && before(q.side[0], q.buckets[0][q.head].t) {
		return q.side.pop()
	}
	b := q.buckets[0]
	t := b[q.head].t
	q.head++
	q.n--
	if q.head < len(b) {
		return t
	}
	q.buckets[0], q.head = b[:0], 0
	if q.n == 0 {
		return t
	}
	i := 1
	for len(q.buckets[i]) == 0 {
		i++
	}
	b = q.buckets[i]
	q.last = b[0].ts
	for _, e := range b[1:] {
		q.last = min(q.last, e.ts)
	}
	for _, e := range b {
		j := bits.Len64(e.ts ^ q.last)
		q.buckets[j] = append(q.buckets[j], e)
	}
	q.buckets[i] = b[:0]
	return t
}

// The commit-rate controller runs each window of modeWindow commits in
// team mode, where every worker dispatches, or in solo mode, where a
// worker dispatches only while no other holds an attempt: every dispatch
// is then the earliest attempt and the commit queue stays empty. Tasks of
// a microsecond commit faster solo, with the scheduler's state and the
// task data in one CPU's cache; coarse tasks commit faster in a team.
const (
	modeWindow  = 2048 // commits per window
	modeRecheck = 16   // every modeRecheck-th window re-measures the slower mode
)

// soloWindow reports whether window n, counting from 0, runs solo, given
// the last measured times of a team and a solo window. Windows 0 and 1
// measure team and solo; later ones run the faster mode, team on a tie,
// but every modeRecheck-th runs the other.
func soloWindow(n uint64, team, solo time.Duration) bool {
	if n < 2 {
		return n == 1
	}
	return (solo < team) != (n%modeRecheck == 0)
}

// sched is the software task unit + commit queue: one timestamp-ordered
// ready queue feeding worker goroutines, one running slot per worker, and
// a bounded commit queue drained strictly in virtual-time order. One
// mutex guards it all; tasks execute outside the lock, so the lock only
// serializes dispatch and commit — the runtime's software stand-in for
// the simulator's per-tile task units and GVT-gated commit queues. A
// worker takes the lock once per task: next retires its finished attempt
// and hands it the next task in one critical section. Of the Cores()
// workers, all dispatch in team mode and one at a time in solo mode.
type sched struct {
	r  *Runtime
	mu sync.Mutex
	// cond parks idle workers. In team mode, a worker that takes a task
	// while more work is runnable wakes one idle worker with Signal, which
	// does the same, so new work fans out one wakeup at a time. Only
	// draining or poisoning the phase wakes them all.
	cond sync.Cond
	// park holds the workers solo mode keeps out. Team mode, draining or
	// poisoning the phase wakes them all.
	park sync.Cond
	// solo is the current window's mode; window counts the windows
	// before it, which began at winStart and ends at commit winEnd.
	// teamNS and soloNS time the last window of each mode.
	solo           bool
	window, winEnd uint64
	winStart       time.Time
	teamNS, soloNS time.Duration

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

func newSched(r *Runtime, conservative bool) *sched {
	s := &sched{
		r:            r,
		running:      make([]*task, r.cfg.Cores()),
		commitCap:    r.cfg.CommitQPerCore * r.cfg.Cores(),
		conservative: conservative,
	}
	if r.cfg.UnboundedQueues {
		s.commitCap = math.MaxInt
	}
	s.cond.L = &s.mu
	s.park.L = &s.mu
	return s
}

// enqueueLocked admits a new descriptor in a free task record, carving a
// slab of 64 records when none is free, and assigns the next sequence
// number. Callers are single-threaded (setup) or hold the commit path's
// serialization (child enqueue at parent commit), so sequence assignment
// is deterministic.
func (s *sched) enqueueLocked(d guest.TaskDesc) {
	s.seqCtr++
	if s.free == nil {
		slab := make([]task, 64)
		for i := range slab {
			slab[i].next, s.free = s.free, &slab[i]
		}
	}
	t := s.free
	s.free, t.next = t.next, nil
	t.desc = d
	t.vt = vt.Time{TS: d.TS, Path: d.Path, Cycle: s.seqCtr}
	s.ready.push(t)
}

// minRunningLocked returns the earliest running attempt, or nil. It
// scans one slot per worker.
func (s *sched) minRunningLocked() *task {
	var best *task
	for _, t := range s.running {
		if t != nil && (best == nil || before(t, best)) {
			best = t
		}
	}
	return best
}

// runnableLocked reports whether the ready minimum may dispatch now.
// While the commit queue is full, only a task that precedes its head may
// run, and otherwise the worker waits: the software form of the
// simulator's full-commit-queue stall (§4.7). The minimum uncommitted
// task always passes, so the bound cannot deadlock. Beyond that,
// speculative mode dispatches regardless of what is still uncommitted.
// Conservative mode holds the task back until its timestamp is the
// minimum uncommitted timestamp. That frontier is deliberately
// timestamp-only: a conservative wave spans a whole timestamp slot
// including its nested fork subtasks, which may run concurrently within
// the wave; the commit queue still retires them in full virtual-time
// order.
func (s *sched) runnableLocked() bool {
	first := s.ready.min()
	if first == nil {
		return false
	}
	if len(s.commitQ) >= s.commitCap && !before(first, s.commitQ[0]) {
		return false
	}
	if !s.conservative {
		return true
	}
	if run := s.minRunningLocked(); run != nil && run.vt.TS < first.vt.TS {
		return false
	}
	return len(s.commitQ) == 0 || s.commitQ[0].vt.TS >= first.vt.TS
}

// next retires the calling worker's finished attempt, if any, and blocks
// until it can hand worker w a task, or returns nil when the phase is
// drained (or poisoned by err).
func (s *sched) next(w int, finished *task) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	// run is the earliest running attempt. Until this worker waits, only
	// its own slot changes.
	s.running[w] = nil
	run := s.minRunningLocked()
	if finished != nil {
		s.retireLocked(finished, run)
	}
	for s.err == nil && !s.done {
		switch {
		case s.solo && run != nil:
			s.park.Wait()
		case s.runnableLocked():
			t := s.ready.pop()
			s.running[w] = t
			s.dequeues++
			t.env = s.getEnvLocked(t.desc)
			// The ready minimum t is the earliest uncommitted task, the GVT
			// task (§4.7), if no running attempt precedes it: the commit
			// queue's head always waits on an earlier ready or running task.
			t.env.earliest = run == nil || before(t, run)
			if !s.solo && s.runnableLocked() {
				s.cond.Signal()
			}
			return t
		case s.ready.len() == 0 && len(s.commitQ) == 0 && run == nil:
			s.done = true
			s.cond.Broadcast()
			s.park.Broadcast()
			return nil
		default:
			s.cond.Wait()
		}
		run = s.minRunningLocked()
	}
	return nil
}

// getEnvLocked takes an attempt buffer from the free list, reset for an
// attempt of desc.
func (s *sched) getEnvLocked(desc guest.TaskDesc) *taskEnv {
	n := len(s.envs)
	if n == 0 {
		return newTaskEnv(s.r, desc)
	}
	e := s.envs[n-1]
	s.envs = s.envs[:n-1]
	e.reset(desc)
	return e
}

func (s *sched) putEnvLocked(e *taskEnv) { s.envs = append(s.envs, e) }

// abortLocked discards t's attempt and makes t runnable again.
func (s *sched) abortLocked(t *task) {
	s.aborts++
	s.putEnvLocked(t.env)
	t.env = nil
	s.ready.side.push(t)
}

// handlePanic resolves a panic thrown during worker w's speculative
// execution of t. A task that read an inconsistent snapshot can do
// anything a wrong branch allows — index out of range, misaligned
// address, runaway loop — so a panic is first treated as suspected
// misspeculation: if the read set no longer validates, or may hold words
// the running earliest attempt stored in place (which versions cannot
// tell from committed ones), the attempt aborts and retries like any
// conflict. If the reads were consistent the panic is real: memory rolls
// back to the committed words, an op-cap overrun becomes a runtime error
// (infinite loop in guest code), and anything else re-panics exactly as
// it would under the simulator.
func (s *sched) handlePanic(w int, t *task, pval any) {
	s.mu.Lock()
	s.running[w] = nil
	if run := s.minRunningLocked(); run != nil && run.env.earliest || !s.validLocked(t.env) {
		s.abortLocked(t)
		s.mu.Unlock()
		return
	}
	t.env.unplace()
	if _, capped := pval.(opCapPanic); capped {
		s.failLocked(s.r.taskErr(t, "exceeded %d operations in one attempt — likely an infinite loop", uint64(opCap)))
		s.mu.Unlock()
		return
	}
	s.failLocked(nil) // poison the phase so peers stop before the repanic
	s.mu.Unlock()
	panic(pval)
}

// failLocked poisons the phase with its first error and wakes everyone.
func (s *sched) failLocked(err error) {
	if s.err == nil {
		if err == nil {
			err = errGuestPanic
		}
		s.err = err
	}
	s.cond.Broadcast()
	s.park.Broadcast()
}

// validLocked checks an attempt's read set against current committed
// versions. Commits only happen under s.mu, so the check is stable.
func (s *sched) validLocked(env *taskEnv) bool {
	for i, addr := range env.reads.addrs {
		if s.r.store.version(addr) != env.readRecs[i].ver {
			return false
		}
	}
	return true
}

// retireLocked takes a finished attempt. An attempt that precedes every
// ready, running and queued task commits on the spot, skipping the commit
// queue (at 1 worker every attempt does); any other, or any attempt of a
// poisoned phase, joins the queue, the earliest attempt after its stores
// come out of memory. Then whatever has become committable commits. run
// is the earliest running attempt, or nil; the running set cannot change
// meanwhile.
func (s *sched) retireLocked(t, run *task) {
	first := s.ready.min()
	if s.err != nil || run != nil && before(run, t) ||
		first != nil && before(first, t) ||
		len(s.commitQ) > 0 && before(s.commitQ[0], t) {
		t.env.unplace()
		s.commitQ.push(t)
		s.peakCommitQ = max(s.peakCommitQ, len(s.commitQ))
	} else if !s.commitLocked(t) {
		return
	}
	s.drainLocked(run)
}

// drainLocked commits the committable prefix of the commit queue: a task
// commits only once no ready or running task precedes it, which makes
// the commit sequence strictly ordered by virtual time — the software
// equivalent of GVT-gated commit (§4.2). run is the earliest running
// attempt, or nil.
func (s *sched) drainLocked(run *task) {
	for len(s.commitQ) > 0 && s.err == nil {
		head := s.commitQ[0]
		if first := s.ready.min(); run != nil && before(run, head) || first != nil && before(first, head) {
			return
		}
		s.commitQ.pop()
		if !s.commitLocked(head) {
			return
		}
	}
}

// commitLocked validates and commits t, which no uncommitted task
// precedes, and recycles its record and attempt buffer; the earliest
// attempt's writes are in memory already. A failed validation aborts and
// requeues t instead, and commitLocked reports false: t is again the
// minimum uncommitted task, so nothing else may commit before its retry,
// which runs as the earliest attempt and always validates. A failed
// DebugChecks check poisons the phase and also reports false: a commit
// under an earliest attempt, or a diverging re-execution.
func (s *sched) commitLocked(t *task) bool {
	env := t.env
	if !s.validLocked(env) {
		s.abortLocked(t)
		return false
	}
	if s.r.cfg.DebugChecks {
		for _, run := range s.running {
			if run != nil && run.env.earliest {
				s.failLocked(s.r.taskErr(run, "ran as the earliest attempt while a task committed"))
				return false
			}
		}
		if err := s.r.recheckLocked(t); err != nil {
			s.failLocked(err)
			return false
		}
	}
	s.r.store.undo = s.r.store.undo[:0] // keep the earliest attempt's stores
	for i, addr := range env.writes.addrs {
		s.r.store.commitWrite(addr, env.writeVals[i])
	}
	for _, d := range env.children {
		s.enqueueLocked(d)
	}
	s.enqueues += uint64(len(env.children))
	if len(env.frees) > 0 {
		s.r.heapMu.Lock()
		for _, f := range env.frees {
			s.r.heap.Free(0, f.addr, f.n)
		}
		s.r.heap.ReleaseQuarantine(0)
		s.r.heapMu.Unlock()
	}
	s.putEnvLocked(env)
	t.env = nil
	t.next, s.free = s.free, t
	s.commits++
	if s.commits == s.winEnd {
		// Time the window under its mode and open the next.
		now := time.Now()
		if s.solo {
			s.soloNS = now.Sub(s.winStart)
		} else {
			s.teamNS = now.Sub(s.winStart)
		}
		s.window++
		if s.solo = soloWindow(s.window, s.teamNS, s.soloNS); !s.solo {
			s.park.Broadcast()
		}
		s.winStart, s.winEnd = now, s.commits+modeWindow
	}
	return true
}
