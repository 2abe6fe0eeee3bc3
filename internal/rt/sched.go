package rt

import (
	"sync"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// vtime is a task's unique virtual time: the guest timestamp ordered
// first, then the nested fork path (tsdom dag order, empty for flat
// tasks), broken by a global creation sequence number — exactly like the
// simulator's (timestamp, path, tiebreaker) virtual time (§4.2). Roots
// take sequence numbers in setup order; children take them at their
// parent's commit. Commits happen strictly in vtime order and children
// inherit sequence numbers from a deterministic commit sequence, so the
// total order — and with it the final guest memory — is independent of
// worker interleaving.
type vtime struct {
	ts   uint64
	path tsdom.Path
	seq  uint64
}

func (a vtime) less(b vtime) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	if c := tsdom.Compare(a.path, b.path); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// task is one schedulable unit. vt is fixed at creation and survives
// aborts; env is the attempt buffer, held from dispatch until the attempt
// commits or aborts.
type task struct {
	desc guest.TaskDesc
	vt   vtime
	env  *taskEnv
}

// taskHeap is a binary min-heap of tasks by vtime.
type taskHeap []*task

func (h *taskHeap) push(t *task) {
	q := append(*h, t)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !t.vt.less(q[p].vt) {
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
			if c+1 < n && q[c+1].vt.less(q[c].vt) {
				c++
			}
			if !q[c].vt.less(last.vt) {
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
// a commit queue drained strictly in vtime order. One mutex guards it
// all; tasks execute outside the lock, so the lock only serializes
// dispatch and commit — the runtime's software stand-in for the
// simulator's per-tile task units and GVT-gated commit queues. A worker
// takes the lock once per task: next retires its finished attempt and
// hands it the next task in one critical section.
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
	// commit in vtime order.
	commitQ taskHeap
	// envs holds recycled attempt buffers.
	envs []*taskEnv

	// conservative restricts dispatch to tasks at the minimum uncommitted
	// timestamp (level-synchronous waves): no task runs ahead of virtual
	// time, so aborts only come from same-timestamp conflicts.
	conservative bool

	seqCtr uint64
	done   bool
	err    error

	commits, aborts, retries uint64
	enqueues, dequeues       uint64
}

func newSched(r *Runtime, workers int, conservative bool) *sched {
	s := &sched{r: r, running: make([]*task, workers), conservative: conservative}
	s.cond.L = &s.mu
	return s
}

// enqueueLocked admits a new descriptor, assigning the next sequence
// number. Callers are single-threaded (setup) or hold the commit path's
// serialization (child enqueue at parent commit), so sequence assignment
// is deterministic.
func (s *sched) enqueueLocked(d guest.TaskDesc) {
	s.seqCtr++
	s.enqueues++
	s.ready.push(&task{desc: d, vt: vtime{ts: d.TS, path: d.Path, seq: s.seqCtr}})
}

// minRunningLocked returns the minimum vtime over running attempts. It
// scans one slot per worker.
func (s *sched) minRunningLocked() (vtime, bool) {
	var best vtime
	ok := false
	for _, t := range s.running {
		if t != nil && (!ok || t.vt.less(best)) {
			best, ok = t.vt, true
		}
	}
	return best, ok
}

// runnableLocked reports whether the ready minimum may dispatch now.
// Speculative mode dispatches it regardless of what is still uncommitted.
// Conservative mode holds it back until its timestamp is the minimum
// uncommitted timestamp. That frontier is deliberately timestamp-only: a
// conservative wave spans a whole timestamp slot including its nested
// fork subtasks, which may run concurrently within the wave; the commit
// queue still retires them in full (ts, path, seq) order.
func (s *sched) runnableLocked() bool {
	if len(s.ready) == 0 {
		return false
	}
	if !s.conservative {
		return true
	}
	ts := s.ready[0].vt.ts
	if run, ok := s.minRunningLocked(); ok && run.ts < ts {
		return false
	}
	return len(s.commitQ) == 0 || s.commitQ[0].vt.ts >= ts
}

// next retires the calling worker's finished attempt, if any, and blocks
// until it can hand worker w a task, or returns nil when the phase is
// drained (or poisoned by err). Retiring an attempt queues it for commit
// and drains whatever has become committable.
func (s *sched) next(w int, finished *task) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	if finished != nil {
		s.running[w] = nil
		s.commitQ.push(finished)
		s.tryCommitsLocked()
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
			if _, busy := s.minRunningLocked(); !busy {
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
	s.retries++
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

// tryCommitsLocked drains the committable prefix of the commit queue: a
// task commits only once no ready or running task precedes it in vtime,
// which makes the commit sequence strictly vtime-ordered — the software
// equivalent of GVT-gated commit (§4.2). Validation failures abort and
// requeue the task; since the requeued task now precedes the rest of the
// commit queue, the drain stops and the retry runs first. The minimum-
// vtime uncommitted task can never be invalidated while running (nothing
// may commit under it), so every task eventually commits. The running
// set cannot change during the drain, so its minimum is taken once.
func (s *sched) tryCommitsLocked() {
	run, running := s.minRunningLocked()
	for len(s.commitQ) > 0 && s.err == nil {
		if running && run.less(s.commitQ[0].vt) || len(s.ready) > 0 && s.ready[0].vt.less(s.commitQ[0].vt) {
			return
		}
		head := s.commitQ.pop()
		env := head.env
		if !s.validLocked(env) {
			s.abortLocked(head)
			continue
		}
		if s.r.cfg.DebugChecks {
			if err := s.r.recheckLocked(head); err != nil {
				s.failLocked(err)
				return
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
		head.env = nil
		s.commits++
	}
}
