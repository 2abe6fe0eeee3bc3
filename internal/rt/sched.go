package rt

import (
	"math/bits"
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
	modeCheck   = 256  // commits between a re-measure's clock reads
	modeRecheck = 16   // windows from a re-measure that won to the next
	modeBackoff = 256  // the longest gap, which each lost re-measure doubles
)

// windowLocked runs at the last commit of a window and every modeCheck
// commits of a re-measure, at time now, and times the window per
// committed operation, modeled Work excluded. A window of the kept mode
// records its time. A re-measure that costs as much or more loses at
// once: the kept mode resumes, and the gap to the next re-measure
// doubles, up to modeBackoff. One that still costs less at its last
// commit wins: its mode is kept from then on, and the gap is
// modeRecheck. Window 0 runs team and window 1 re-measures solo.
func (r *Runtime) windowLocked(now time.Time) {
	perOp := float64(now.Sub(r.winStart)) / float64(r.winOps)
	switch {
	case !r.trial:
		r.perOp = perOp
	case perOp >= r.perOp:
		r.solo, r.gap = !r.solo, min(max(2*r.gap, modeRecheck), modeBackoff)
		r.recheck = r.window + r.gap
	case r.commits != r.winEnd:
		return
	default:
		r.perOp, r.gap, r.recheck = perOp, modeRecheck, r.window+modeRecheck
	}
	r.window++
	r.trial = r.window >= r.recheck
	r.solo = r.solo != r.trial
	r.winStart, r.winEnd, r.winOps = now, r.commits+modeWindow, 0
}

// enqueueLocked admits a new descriptor in a free task record, carving a
// slab of 64 records when none is free, and assigns the next sequence
// number. Callers are single-threaded (setup) or hold the commit path's
// serialization (child enqueue at parent commit), so sequence assignment
// is deterministic.
func (r *Runtime) enqueueLocked(d guest.TaskDesc) {
	r.seqCtr++
	if r.free == nil {
		slab := make([]task, 64)
		for i := range slab {
			slab[i].next, r.free = r.free, &slab[i]
		}
	}
	t := r.free
	r.free, t.next = t.next, nil
	t.desc = d
	t.vt = vt.Time{TS: d.TS, Path: d.Path, Cycle: r.seqCtr}
	r.ready.push(t)
}

// minRunningLocked returns the earliest running attempt, or nil. It
// scans one slot per worker.
func (r *Runtime) minRunningLocked() *task {
	var best *task
	for _, t := range r.running {
		if t != nil && (best == nil || before(t, best)) {
			best = t
		}
	}
	return best
}

// runnableLocked reports whether the ready minimum may dispatch now,
// given run, the earliest running attempt or nil. A solo window admits
// no task while any attempt runs. While the commit queue is full, only a
// task that precedes its head may run, and otherwise the worker waits:
// the software form of the simulator's full-commit-queue stall (§4.7).
// The minimum uncommitted task always passes, so the bound cannot
// deadlock. Beyond that, speculative mode dispatches regardless of what
// is still uncommitted. Conservative mode holds the task back until its
// timestamp is the minimum uncommitted timestamp. That frontier is
// deliberately timestamp-only: a conservative wave spans a whole
// timestamp slot including its nested fork subtasks, which may run
// concurrently within the wave; the commit queue still retires them in
// full virtual-time order.
func (r *Runtime) runnableLocked(run *task) bool {
	if r.solo && run != nil {
		return false
	}
	first := r.ready.min()
	if first == nil {
		return false
	}
	if len(r.commitQ) >= r.commitCap && !before(first, r.commitQ[0]) {
		return false
	}
	if !r.conservative {
		return true
	}
	if run != nil && run.vt.TS < first.vt.TS {
		return false
	}
	return len(r.commitQ) == 0 || r.commitQ[0].vt.TS >= first.vt.TS
}

// next retires the calling worker's finished attempt, if any, and blocks
// until it can hand worker w a task, or returns nil when the phase is
// drained (or poisoned by err).
func (r *Runtime) next(w int, finished *task) *task {
	r.mu.Lock()
	defer r.mu.Unlock()
	// run is the earliest running attempt. Until this worker waits, only
	// its own slot changes.
	r.running[w] = nil
	run := r.minRunningLocked()
	if finished != nil {
		r.retireLocked(finished, run)
	}
	for r.err == nil && !r.done {
		switch {
		case r.runnableLocked(run):
			t := r.ready.pop()
			r.running[w] = t
			r.dequeues++
			t.env = r.getEnvLocked(t.desc)
			// The ready minimum t is the earliest uncommitted task, the GVT
			// task (§4.7), if no running attempt precedes it: the commit
			// queue's head always waits on an earlier ready or running task.
			if t.env.earliest = run == nil || before(t, run); t.env.earliest {
				run = t
			}
			if !r.solo && r.runnableLocked(run) {
				r.cond.Signal()
			}
			return t
		case r.ready.len() == 0 && len(r.commitQ) == 0 && run == nil:
			r.done = true
			r.cond.Broadcast()
			return nil
		default:
			r.cond.Wait()
		}
		run = r.minRunningLocked()
	}
	return nil
}

// getEnvLocked takes an attempt buffer from the free list, reset for an
// attempt of desc.
func (r *Runtime) getEnvLocked(desc guest.TaskDesc) *taskEnv {
	n := len(r.envs)
	if n == 0 {
		return newTaskEnv(r, desc)
	}
	e := r.envs[n-1]
	r.envs = r.envs[:n-1]
	e.reset(desc)
	return e
}

func (r *Runtime) putEnvLocked(e *taskEnv) { r.envs = append(r.envs, e) }

// abortLocked discards t's attempt and makes t runnable again.
func (r *Runtime) abortLocked(t *task) {
	r.aborts++
	r.putEnvLocked(t.env)
	t.env = nil
	r.ready.side.push(t)
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
func (r *Runtime) handlePanic(w int, t *task, pval any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running[w] = nil
	if run := r.minRunningLocked(); run != nil && run.env.earliest || !r.validLocked(t.env) {
		r.abortLocked(t)
		return
	}
	t.env.unplace()
	if _, capped := pval.(opCapPanic); capped {
		r.failLocked(r.taskErr(t, "exceeded %d operations in one attempt — likely an infinite loop", uint64(opCap)))
		return
	}
	r.failLocked(nil) // poison the phase so peers stop before the repanic
	panic(pval)
}

// failLocked poisons the phase with its first error and wakes everyone.
func (r *Runtime) failLocked(err error) {
	if r.err == nil {
		if err == nil {
			err = errGuestPanic
		}
		r.err = err
	}
	r.cond.Broadcast()
}

// validLocked checks an attempt's read set against current committed
// versions. Commits only happen under r.mu, so the check is stable.
func (r *Runtime) validLocked(env *taskEnv) bool {
	for i, addr := range env.reads.addrs {
		if r.store.version(addr) != env.readRecs[i].ver {
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
func (r *Runtime) retireLocked(t, run *task) {
	first := r.ready.min()
	if r.err != nil || run != nil && before(run, t) ||
		first != nil && before(first, t) ||
		len(r.commitQ) > 0 && before(r.commitQ[0], t) {
		t.env.unplace()
		r.commitQ.push(t)
		r.peakCommitQ = max(r.peakCommitQ, len(r.commitQ))
	} else if !r.commitLocked(t) {
		return
	}
	r.drainLocked(run)
}

// drainLocked commits the committable prefix of the commit queue: a task
// commits only once no ready or running task precedes it, which makes
// the commit sequence strictly ordered by virtual time — the software
// equivalent of GVT-gated commit (§4.2). run is the earliest running
// attempt, or nil.
func (r *Runtime) drainLocked(run *task) {
	for len(r.commitQ) > 0 && r.err == nil {
		head := r.commitQ[0]
		if first := r.ready.min(); run != nil && before(run, head) || first != nil && before(first, head) {
			return
		}
		r.commitQ.pop()
		if !r.commitLocked(head) {
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
func (r *Runtime) commitLocked(t *task) bool {
	env := t.env
	if !r.validLocked(env) {
		r.abortLocked(t)
		return false
	}
	if r.cfg.DebugChecks {
		for _, run := range r.running {
			if run != nil && run.env.earliest {
				r.failLocked(r.taskErr(run, "ran as the earliest attempt while a task committed"))
				return false
			}
		}
		if err := r.recheckLocked(t); err != nil {
			r.failLocked(err)
			return false
		}
	}
	r.store.undo = r.store.undo[:0] // keep the earliest attempt's stores
	for i, addr := range env.writes.addrs {
		r.store.commitWrite(addr, env.writeVals[i])
	}
	for _, d := range env.children {
		r.enqueueLocked(d)
	}
	r.enqueues += uint64(len(env.children))
	if len(env.frees) > 0 {
		r.heapMu.Lock()
		for _, f := range env.frees {
			r.heap.Free(0, f.addr, f.n)
		}
		r.heap.ReleaseQuarantine(0)
		r.heapMu.Unlock()
	}
	r.winOps += env.ops - env.work + 1
	r.putEnvLocked(env)
	t.env = nil
	t.next, r.free = r.free, t
	r.commits++
	if r.commits == r.winEnd || r.trial && (r.winEnd-r.commits)%modeCheck == 0 {
		r.windowLocked(time.Now())
	}
	return true
}
