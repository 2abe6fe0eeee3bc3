package core

import (
	"container/heap"
	"sort"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/noc"
)

// Task queue virtualization (§4.7): when a tile's task queue is nearly
// full, a non-speculative coalescer task removes several idle,
// non-speculative descriptors with the highest programmer timestamps,
// stores them in memory, and enqueues a splitter task (timestamped with the
// batch minimum) that re-enqueues them later. This gives programs the
// illusion of unbounded hardware task queues.

// spillBatch is one coalesced batch in memory: the spilled descriptors plus
// the tile that owns them (the splitter's home), which GVT bound
// construction needs (assertCommitOrder ties break on the owning tile).
type spillBatch struct {
	tile  int
	descs []guest.TaskDesc
}

// checkSpillTrigger arms the coalescer when occupancy crosses the
// threshold (Table 3: 75%).
func (m *Machine) checkSpillTrigger(tt *tile) {
	if m.cfg.UnboundedQueues {
		return
	}
	tt.spillWanted = tt.nTasks*100 >= m.cfg.TaskQPerTile()*spillThresholdPct
}

// spillable reports whether a task can move to software: only idle tasks
// whose parent has committed (no parent pointer) can leave the hardware
// queues, since aborts must be able to find speculative children.
func spillable(t *task) bool {
	return t.state == taskIdle && t.parent == nil && t.kind == kindWorker
}

// movableTasks returns up to max of the tile's idle, parentless worker
// tasks strictly later than the queue head — the set the coalescer may
// spill to memory. Only tasks strictly later than the tile's earliest
// timestamp qualify: spilling the head would immediately force it back
// (and can livelock the tile in ping-pong while real work starves).
// Highest timestamps come first — the work farthest from the GVT and
// least likely to be needed soon.
func movableTasks(tt *tile, max int) []*task {
	var minDesc guest.TaskDesc
	if minT := tt.idleQ.Min(); minT != nil {
		minDesc = minT.desc
	}
	var batch []*task
	for _, t := range tt.idleQ.h {
		if spillable(t) && t.desc.Compare(minDesc) > 0 {
			batch = append(batch, t)
		}
	}
	sort.Slice(batch, func(i, j int) bool {
		if c := batch[i].desc.Compare(batch[j].desc); c != 0 {
			return c > 0
		}
		return batch[i].seq > batch[j].seq
	})
	if len(batch) > max {
		batch = batch[:max]
	}
	return batch
}

// runCoalescer runs a coalescer pseudo-task on the core. Returns false if
// nothing was spillable (the caller then dispatches normally).
func (m *Machine) runCoalescer(c *cpu) bool {
	tt := m.tiles[c.tile]
	batch := movableTasks(tt, m.cfg.SpillBatch)
	if len(batch) == 0 {
		tt.spillWanted = false
		return false
	}

	tt.coalescing = true
	tt.spillWanted = false

	descs := make([]guest.TaskDesc, len(batch))
	batchMin := batch[0].desc
	for i, t := range batch {
		descs[i] = t.desc
		if batchMin.Compare(t.desc) > 0 {
			batchMin = t.desc
		}
		tt.idleQ.Remove(t)
		t.state = taskKilled
		m.freeSlotNoDrain(t)
	}
	m.st.SpilledTasks += uint64(len(descs))

	// Install the splitter task immediately (space is guaranteed: the
	// batch slots were just freed and nothing can run in between). The
	// batch stays reachable through the splitter's task queue entry, so
	// the GVT never passes the spilled work. The splitter carries the
	// batch minimum's (timestamp, path) pair: a bound at the pair is <=
	// every member, so the GVT cannot pass the batch, and committing a
	// same-slot task the whole batch follows stays legal.
	m.batchCtr++
	id := m.batchCtr
	m.spillStore[id] = spillBatch{tile: tt.id, descs: descs}
	sp := m.newTask(guest.TaskDesc{Fn: 0, TS: batchMin.TS, Path: batchMin.Path}, tt.id, nil)
	sp.kind = kindSplitter
	sp.batch = id
	m.insertIdle(tt, sp)

	// The core is busy writing descriptors to memory for a while.
	cycles := spillCyclesPerTask * uint64(len(descs)+1)
	c.wallSpill += cycles
	m.mesh.Account(tt.id, noc.ClassMem, len(descs)*noc.TaskDescBytes)
	m.eng.After(cycles, func() {
		tt.coalescing = false
		m.scheduleDispatch(c, 0)
	})
	return true
}

// freeSlotNoDrain releases a task queue slot without re-materializing
// overflow descriptors (the coalescer is making room on purpose).
func (m *Machine) freeSlotNoDrain(t *task) {
	tt := m.tiles[t.tile]
	tt.nTasks--
	m.putFilter(t.rs)
	m.putFilter(t.ws)
	t.rs, t.ws = nil, nil
	m.graveTask(t)
}

// runSplitter re-enqueues a spilled batch into the local task queue. Any
// part of the batch that does not fit goes to the tile's memory-backed
// overflow heap (drained as room appears) — never to a fresh splitter:
// re-splitting lets splitters reproduce until they fill the task queue and
// starve real work.
func (m *Machine) runSplitter(c *cpu, t *task) {
	tt := m.tiles[t.tile]
	batch := m.spillStore[t.batch].descs
	delete(m.spillStore, t.batch)

	cycles := spillCyclesPerTask * uint64(len(batch)+1)
	c.wallSpill += cycles
	m.mesh.Account(tt.id, noc.ClassMem, len(batch)*noc.TaskDescBytes)

	m.eng.After(cycles, func() {
		// Free the splitter's own slot first, then refill.
		t.state = taskCommitted
		m.freeSlotNoDrain(t)
		c.task = nil
		t.core = -1

		// Insert lowest (timestamp, path) pairs first.
		sort.Slice(batch, func(i, j int) bool { return batch[i].Compare(batch[j]) < 0 })
		free := m.cfg.TaskQPerTile() - tt.nTasks
		n := len(batch)
		if !m.cfg.UnboundedQueues && n > free {
			n = free
		}
		for _, d := range batch[:n] {
			m.insertIdle(tt, m.newTask(d, tt.id, nil))
		}
		for _, d := range batch[n:] {
			heap.Push(&tt.overflow, d)
		}
		m.drainOverflow(tt)
		m.checkSpillTrigger(tt)
		m.scheduleDispatch(c, 1)
	})
}
