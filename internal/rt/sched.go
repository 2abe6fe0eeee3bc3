package rt

import (
	"math"
	"sync"

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

// sched is the software task unit + commit queue: one timestamp-ordered
// ready heap feeding worker goroutines, one running slot per worker, and
// a bounded commit queue drained strictly in virtual-time order. One
// mutex guards it all; tasks execute outside the lock, so the lock only
// serializes dispatch and commit — the runtime's software stand-in for
// the simulator's per-tile task units and GVT-gated commit queues. A
// worker takes the lock once per task: next retires its finished attempt
// and hands it the next task in one critical section.
type sched struct {
	r  *Runtime
	mu sync.Mutex
	// cond parks idle workers. A worker that takes a task while more
	// work is runnable wakes one idle worker with Signal, which does the
	// same, so new work fans out one wakeup at a time. Only draining or
	// poisoning the phase wakes them all.
	cond sync.Cond

	// ready holds runnable tasks.
	ready taskHeap
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
	// recycled task records linked through task.next.
	envs []*taskEnv
	free *task

	// conservative restricts dispatch to tasks at the minimum uncommitted
	// timestamp (level-synchronous waves): no task runs ahead of virtual
	// time, so aborts only come from same-timestamp conflicts.
	conservative bool

	seqCtr uint64
	done   bool
	err    error

	commits, aborts    uint64
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
	return s
}

// enqueueLocked admits a new descriptor in a recycled task record,
// assigning the next sequence number. Callers are single-threaded
// (setup) or hold the commit path's serialization (child enqueue at
// parent commit), so sequence assignment is deterministic.
func (s *sched) enqueueLocked(d guest.TaskDesc) {
	s.seqCtr++
	s.enqueues++
	t := s.free
	if t != nil {
		s.free, t.next = t.next, nil
	} else {
		t = new(task)
	}
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
	if len(s.ready) == 0 {
		return false
	}
	first := s.ready[0]
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
	if finished != nil {
		s.running[w] = nil
		s.retireLocked(finished)
	}
	for s.err == nil && !s.done {
		if s.runnableLocked() {
			t := s.ready.pop()
			s.running[w] = t
			s.dequeues++
			t.env = s.getEnvLocked()
			if s.runnableLocked() {
				s.cond.Signal()
			}
			return t
		}
		if len(s.ready) == 0 && len(s.commitQ) == 0 {
			if s.minRunningLocked() == nil {
				s.done = true
				s.cond.Broadcast()
				return nil
			}
		}
		s.cond.Wait()
	}
	return nil
}

// getEnvLocked takes an attempt buffer from the free list; the caller
// resets it for its task.
func (s *sched) getEnvLocked() *taskEnv {
	n := len(s.envs)
	if n == 0 {
		return newTaskEnv(s.r, guest.TaskDesc{})
	}
	e := s.envs[n-1]
	s.envs = s.envs[:n-1]
	return e
}

func (s *sched) putEnvLocked(e *taskEnv) { s.envs = append(s.envs, e) }

// abortLocked discards t's attempt and makes t runnable again.
func (s *sched) abortLocked(t *task) {
	s.aborts++
	s.putEnvLocked(t.env)
	t.env = nil
	s.ready.push(t)
}

// handlePanic resolves a panic thrown during worker w's speculative
// execution of t. A task that read an inconsistent snapshot can do
// anything a wrong branch allows — index out of range, misaligned
// address, runaway loop — so a panic is first treated as suspected
// misspeculation: if the read set no longer validates, the attempt aborts
// and retries like any conflict. If the reads were consistent the panic
// is real: an op-cap overrun becomes a runtime error (infinite loop in
// guest code), anything else re-panics exactly as it would under the
// simulator.
func (s *sched) handlePanic(w int, t *task, pval any) {
	s.mu.Lock()
	s.running[w] = nil
	if !s.validLocked(t.env) {
		s.abortLocked(t)
		s.mu.Unlock()
		return
	}
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
// poisoned phase, joins the queue. Then whatever has become committable
// commits. The running set cannot change meanwhile, so its minimum is
// taken once.
func (s *sched) retireLocked(t *task) {
	run := s.minRunningLocked()
	if s.err != nil || run != nil && before(run, t) ||
		len(s.ready) > 0 && before(s.ready[0], t) ||
		len(s.commitQ) > 0 && before(s.commitQ[0], t) {
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
		if run != nil && before(run, head) || len(s.ready) > 0 && before(s.ready[0], head) {
			return
		}
		s.commitQ.pop()
		if !s.commitLocked(head) {
			return
		}
	}
}

// commitLocked validates and commits t, which no uncommitted task
// precedes, and recycles its record and attempt buffer. A failed
// validation aborts and requeues t instead, and commitLocked reports
// false: t is again the minimum uncommitted task, so nothing else may
// commit before its retry. That minimum can never be invalidated while
// running (nothing may commit under it), so every task eventually
// commits. A failed DebugChecks re-execution poisons the phase and also
// reports false.
func (s *sched) commitLocked(t *task) bool {
	env := t.env
	if !s.validLocked(env) {
		s.abortLocked(t)
		return false
	}
	if s.r.cfg.DebugChecks {
		if err := s.r.recheckLocked(t); err != nil {
			s.failLocked(err)
			return false
		}
	}
	for i, addr := range env.writes.addrs {
		s.r.store.commitWrite(addr, env.writeVals[i])
	}
	for _, d := range env.children {
		s.enqueueLocked(d)
	}
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
	return true
}
