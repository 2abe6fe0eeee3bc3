package core

import (
	"fmt"

	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/tsdom"
	"github.com/swarm-sim/swarm/internal/vt"
)

// gvtRound runs the global virtual time protocol (Fig 9): every GVTPeriod
// cycles, tiles send the smallest virtual time of any unfinished task to
// the arbiter; the arbiter broadcasts the minimum; all finished tasks that
// precede the GVT commit. Amortizing commits over the large commit queues
// is what makes ordered commits scale (§4.6).
func (m *Machine) gvtRound() {
	if m.systemEmpty() {
		m.done = true
		return // no reschedule: the event queue drains and Run returns
	}

	now := m.eng.Now()
	gvt := vt.Infinity
	for _, tt := range m.tiles {
		tv := m.tileMinVT(tt, now)
		if tv.Less(gvt) {
			gvt = tv
		}
		m.mesh.Account(tt.id, noc.ClassGVT, noc.GVTMsgBytes)
	}
	// Queue occupancy sampling (Fig 15) — before the commit round, which
	// drains the commit queues (sampling after would always see the
	// post-commit minimum). Per-tile sums feed the mapper diagnostics
	// (placement skew is invisible in the machine-wide averages).
	for i, tt := range m.tiles {
		tq := uint64(tt.nTasks)
		cq := uint64(tt.commitQ.Len() + tt.finishWait.Len())
		m.st.tqOccSum += tq
		m.st.cqOccSum += cq
		m.st.tileTqOccSum[i] += tq
		m.st.tileCqOccSum[i] += cq
	}
	// Arbiter broadcast (the arbiter sits by tile 0).
	m.mesh.Account(0, noc.ClassGVT, noc.GVTMsgBytes*m.cfg.Tiles)
	m.gvt = gvt
	m.st.gvtUpdates++
	m.st.occSamples++

	prevCommits := m.st.commits
	m.commitRound(gvt)
	if m.st.commits != prevCommits {
		m.dryRounds = 0
	} else if m.dryRounds++; m.dryRounds >= rescueDryRounds {
		m.dryRounds = 0
		for _, tt := range m.tiles {
			m.rescueOverflow(tt)
		}
	}
	for _, tt := range m.tiles {
		m.unblockTile(tt, now)
	}

	m.eng.After(m.cfg.GVTPeriod, m.gvtFn)
}

// rescueDryRounds is the liveness backstop's trigger: after this many
// consecutive GVT rounds without a single commit machine-wide, overflow
// heads that precede their tile's resident work are re-materialized. The
// threshold (~50k cycles at the default 200-cycle period) is far beyond
// any commit gap a healthy run shows, so the backstop never perturbs
// normal execution — the golden fingerprint corpus pins that.
const rescueDryRounds = 256

// rescueOverflow re-materializes overflowed descriptors, but only when
// the overflow head precedes every idle task on the tile — the state
// where the tile's commits (and with them the freeSlot-triggered drains
// that normally empty overflow) can be gated on the overflow head
// itself, wedging the machine. Flat timestamps cannot stay wedged this
// way (spills pick the latest work, so the head trails the hardware
// queue and same-slot bounds break on cycle), but nested fork paths can:
// a spilled or setup-overflowed descriptor whose path precedes
// everything resident blocks the GVT until it is drained, and with all
// cores stalled behind full commit queues no freeSlot event ever comes.
// The dry-round counter in gvtRound makes this the guaranteed retry.
func (m *Machine) rescueOverflow(tt *tile) {
	if len(tt.overflow) == 0 {
		return
	}
	if minIdle := tt.idleQ.Min(); minIdle != nil && !descLater(minIdle.desc, tt.overflow[0]) {
		return // resident work is at or before the head; normal drains suffice
	}
	m.drainOverflow(tt)
}

// unblockTile enforces the §4.7 progress rule from the arbiter's side:
// always prioritize earlier-virtual-time tasks, aborting later ones if
// needed. If an earlier task sits idle in the task queue while every core
// holds a later speculative task that is STUCK — stalled for a commit
// queue entry, blocked behind a full commit queue, or spinning in an
// enqueue-NACK backoff loop — the highest-virtual-time on-core task is
// aborted so the earlier task (typically the next GVT task, whose enqueues
// may overflow to memory) can run. The arrival-time "Cores" policy cannot
// fire in these states because no new insertions are happening, so the
// check is repeated at GVT rounds.
func (m *Machine) unblockTile(tt *tile, now uint64) {
	if m.cfg.UnboundedQueues {
		return
	}
	minIdle := tt.idleQ.Min()
	if minIdle == nil {
		return
	}
	bound := minIdle.boundVT(now)
	cqFull := tt.commitQ.Len() >= m.cfg.CommitQPerTile()
	var maxT *task
	base := tt.id * m.cfg.CoresPerTile
	for i := 0; i < m.cfg.CoresPerTile; i++ {
		t := m.cores[base+i].task
		if t == nil || !t.spec() {
			return // a free core or a progressing coalescer/splitter
		}
		stuck := t.state == taskFinishing ||
			(t.state == taskRunning && (cqFull || t.inBackoff))
		if !stuck {
			return // an on-core task is making progress
		}
		if t.vt.Less(bound) {
			return // an on-core task already precedes the idle one
		}
		if maxT == nil || maxT.vt.Less(t.vt) {
			maxT = t
		}
	}
	if maxT != nil {
		m.st.policyAborts++
		m.abortTask(maxT, false)
	}
}

// descBoundVT is the GVT bound of a memory-resident task descriptor owned
// by a tile — idle tasks, overflow buffers, coalescer batches and spilled
// batches all bound as (timestamp, path, now, owning tile) (§4.6). Every
// bound comparison (tileMinVT, the commit-order assertion) must build
// bounds through this one helper so ties break identically everywhere.
// The descriptor's nested path is part of the bound: dropping it would
// round a pathed descriptor down to its slot's root and falsely order it
// before same-slot tasks it actually follows.
func descBoundVT(ts uint64, path tsdom.Path, now uint64, tile int) vt.Time {
	return vt.Time{TS: ts, Path: path, Cycle: now, Tile: uint32(tile)}
}

// tileMinVT computes the smallest virtual time of any unfinished task in
// the tile: running tasks use their unique virtual time; idle tasks and
// memory-resident descriptors (overflow buffers, in-flight coalescer
// batches) use (timestamp, now, tile) (§4.6).
func (m *Machine) tileMinVT(tt *tile, now uint64) vt.Time {
	minV := vt.Infinity
	base := tt.id * m.cfg.CoresPerTile
	for i := 0; i < m.cfg.CoresPerTile; i++ {
		if t := m.cores[base+i].task; t != nil && t.state == taskRunning {
			minV = vt.Min(minV, t.vt)
		}
	}
	if t := tt.idleQ.Min(); t != nil {
		minV = vt.Min(minV, descBoundVT(t.desc.TS, t.desc.Path, now, tt.id))
	}
	if len(tt.overflow) > 0 {
		minV = vt.Min(minV, descBoundVT(tt.overflow[0].TS, tt.overflow[0].Path, now, tt.id))
	}
	if tt.coalescerLive {
		minV = vt.Min(minV, descBoundVT(tt.coalescerTS, tt.coalescerPath, now, tt.id))
	}
	return minV
}

// commitRound commits every finished task with virtual time < gvt, in
// virtual-time order (parents before children). The per-tile commit queues
// are min-heaps on virtual time, so the round is a k-way merge over queue
// heads — no rescan of queue bodies and no sort.
func (m *Machine) commitRound(gvt vt.Time) {
	committed := false
	for {
		var best *task
		for _, tt := range m.tiles {
			if t := tt.commitQ.Min(); t != nil && t.vt.Less(gvt) && (best == nil || t.vt.Less(best.vt)) {
				best = t
			}
			// A finished task stalled for a commit queue entry can commit
			// directly once ordered before the GVT.
			if t := tt.finishWait.Min(); t != nil && t.vt.Less(gvt) && (best == nil || t.vt.Less(best.vt)) {
				best = t
			}
		}
		if best == nil {
			break
		}
		m.commitTask(best)
		committed = true
	}
	if !committed {
		return
	}
	for _, tt := range m.tiles {
		m.promoteFinishWaiters(tt)
		m.checkSpillTrigger(tt)
	}
}

// commitTask retires one task: eager versioning makes this a single-cycle
// operation — free the task and commit queue entries (§4.6).
func (m *Machine) commitTask(t *task) {
	if m.cfg.DebugChecks {
		m.assertCommitOrder(t)
	}
	if debugCommitHook != nil {
		debugCommitHook(m, t)
	}
	tt := m.tiles[t.tile]
	switch t.state {
	case taskFinished:
		tt.commitQ.Remove(t)
	case taskFinishing:
		tt.finishWait.Remove(t)
		// The stalled task still holds its core; release it.
		m.releaseCore(m.cores[t.core], t)
	default:
		panic("core: committing a task that is not finished")
	}
	t.state = taskCommitted
	m.st.commits++
	tt.commitsCount++
	m.releaseSlot(tt, t)
	if t.lastCore >= 0 {
		m.cores[t.lastCore].committedCyc += t.cyc
	}
	m.heap.ReleaseQuarantine(t.allocToken)
	for _, ch := range t.children {
		ch.parent = nil // children of committed parents are non-speculative
	}
	// Truncate rather than nil out: the task struct is recycled and keeps
	// its slice capacities.
	t.children = t.children[:0]
	t.undo = t.undo[:0]
	m.freeSlot(t)
}

// assertCommitOrder panics if any unfinished task anywhere could still
// order before a committing task — i.e. the GVT protocol let a commit jump
// the order. Debug builds only.
func (m *Machine) assertCommitOrder(t *task) {
	now := m.eng.Now()
	for _, tt := range m.tiles {
		for _, u := range tt.idleQ.h {
			if b := u.boundVT(now); b.Less(t.vt) {
				panic(fmt.Sprintf("core: committing %v but idle task ts=%d could precede it", t.vt, u.desc.TS))
			}
		}
		for _, d := range tt.overflow {
			if descBoundVT(d.TS, d.Path, now, tt.id).Less(t.vt) {
				panic(fmt.Sprintf("core: committing %v but overflow ts=%d path=%s could precede it", t.vt, d.TS, d.Path))
			}
		}
		if tt.coalescerLive {
			if descBoundVT(tt.coalescerTS, tt.coalescerPath, now, tt.id).Less(t.vt) {
				panic(fmt.Sprintf("core: committing %v but coalescer batch ts=%d could precede it", t.vt, tt.coalescerTS))
			}
		}
	}
	for _, c := range m.cores {
		if u := c.task; u != nil && u != t && u.state == taskRunning && u.vt.Less(t.vt) {
			panic(fmt.Sprintf("core: committing %v but running task %v precedes it", t.vt, u.vt))
		}
	}
	for _, b := range m.spillStore {
		for _, d := range b.descs {
			if descBoundVT(d.TS, d.Path, now, b.tile).Less(t.vt) {
				panic(fmt.Sprintf("core: committing %v but spilled ts=%d path=%s could precede it", t.vt, d.TS, d.Path))
			}
		}
	}
}

// systemEmpty reports whether no work remains anywhere: the termination
// condition (§4.1: when no tasks are left and all threads stall on
// dequeue, the algorithm has terminated).
func (m *Machine) systemEmpty() bool {
	for _, tt := range m.tiles {
		if tt.nTasks != 0 || len(tt.overflow) != 0 || tt.coalescing || tt.coalescerLive {
			return false
		}
	}
	for _, c := range m.cores {
		if c.task != nil {
			return false
		}
	}
	return len(m.spillStore) == 0
}
