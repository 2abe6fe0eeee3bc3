package core

import (
	"fmt"
	"math/bits"

	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
	"github.com/swarm-sim/swarm/internal/noc"
)

// access performs one conflict-checked, eagerly-versioned memory access
// (§4.3–4.4). It returns the access latency and, for loads, the value.
//
// Check hierarchy (Fig 7): L1 load hits are conflict-free; everything else
// checks the local tile (other cores + commit queue signatures); L2 misses
// and canary failures additionally check the tiles named by the L3
// directory's sharer/sticky bits. Any later-virtual-time conflicting task
// is aborted. Thanks to eager versioning, reads always see the latest
// (possibly speculative) value in place — data forwarding needs no logic.
func (m *Machine) access(c *cpu, t *task, op guest.Op) (lat, val uint64) {
	isWrite := op.Kind == guest.OpStore
	line := mem.Line(op.Addr)
	res := m.hier.Access(cache.Access{
		Core: c.id, Tile: c.tile, Line: line,
		Write: isWrite, Spec: t.spec(), VT: t.vt,
	})
	lat = res.Latency

	if t.spec() {
		victims := m.getVictims()
		m.probe.Fill(m.cfg.Bloom, line)
		if !(res.L1Hit && !isWrite) {
			cost, _ := m.checkTile(c.tile, t, line, isWrite, &victims)
			lat += m.checkLat(cost)
		}
		if res.NeedGlobalCheck {
			// Copy into machine scratch: the result buffer is reused by
			// the cache on the next access.
			m.tilesScratch = append(m.tilesScratch[:0], res.CheckTiles...)
			// The directory forwards the checks in parallel and the
			// requester waits for the farthest response (Fig 7), so the
			// added latency is the max over checked tiles, not the sum.
			var farthest uint64
			for _, tl := range m.tilesScratch {
				cost, present := m.checkTile(tl, t, line, isWrite, &victims)
				if resp := cost + 2*m.mesh.Latency(c.tile, tl); resp > farthest {
					farthest = resp
				}
				m.mesh.Send(c.tile, tl, noc.ClassMem, noc.HeaderBytes)
				m.mesh.Send(tl, c.tile, noc.ClassMem, noc.HeaderBytes)
				if !present {
					m.hier.ClearSticky(line, tl)
				}
			}
			lat += m.checkLat(farthest)
		}
		if len(victims) > 0 {
			for _, r := range victims {
				m.abortTask(r.t, false)
			}
			// Rollback conflict checks re-filled the shared probe for other
			// lines; restore it for the signature insert below.
			m.probe.Fill(m.cfg.Bloom, line)
		}
		m.putVictims(victims)
		tt := m.tiles[t.tile]
		if isWrite {
			t.ws.InsertProbe(&m.probe)
			if tt.ws0.rows != nil {
				tt.ws0.set(m.probe.Way0(), t.slot)
			}
		} else {
			t.rs.InsertProbe(&m.probe)
			if tt.rs0.rows != nil {
				tt.rs0.set(m.probe.Way0(), t.slot)
			}
		}
	}

	if isWrite {
		// Eager versioning: log the old value, write in place.
		if t.spec() {
			t.undo = append(t.undo, undoRec{addr: op.Addr, old: m.gmem.Load(op.Addr)})
		}
		m.gmem.Store(op.Addr, op.Val)
	} else {
		val = m.gmem.Load(op.Addr)
	}
	if debugAccessHook != nil {
		if !isWrite {
			op.Val = val
		}
		debugAccessHook(m, t, op, res)
	}
	return lat, val
}

// debugAccessHook, when set by tests, observes every conflict-checked
// access after it is applied.
var debugAccessHook func(m *Machine, t *task, op guest.Op, res cache.Result)

// debugAbortHook, when set by tests, observes every abort.
var debugAbortHook func(m *Machine, victim *task, discard bool)

// debugCommitHook, when set by tests, observes every task commit (called
// before the task's state is torn down, so parent/children are intact).
var debugCommitHook func(m *Machine, t *task)

// debugProbeHook, when set by tests, observes every conflict probe.
var debugProbeHook func(accessor *task, tileID int, v *task)

func (m *Machine) checkLat(l uint64) uint64 {
	if m.cfg.Cache.ZeroLatency {
		return 0
	}
	return l
}

// checkTile probes one tile's speculative state — tasks on its cores plus
// its commit queue — for conflicts with the accessor (Fig 8). It returns
// the check cost (base + one cycle per virtual-time comparison, Table 3)
// and whether ANY signature in the tile holds the line (used for lazy
// sticky-bit cleanup: a sticky bit may only be cleared when the tile has no
// speculative state for the line at all — a reader that does not conflict
// with this load must stay visible to future writes). Later-virtual-time
// conflictors are appended to victims.
func (m *Machine) checkTile(tileID int, accessor *task, line uint64, isWrite bool, victims *[]victimRef) (cost uint64, anySpec bool) {
	cost = tileCheckCost
	m.st.BloomChecks++
	tt := m.tiles[tileID]

	// probe tests one resident task's signatures against the precomputed
	// line probe. key encodes the task's position in the architectural
	// probe order (cores, then commit queue, then finish-wait, each in
	// entry order); victims are sorted by it below so abort order is
	// deterministic and independent of how candidates were found.
	probe := func(v *task, key uint64) {
		if debugProbeHook != nil {
			debugProbeHook(accessor, tileID, v)
		}
		if v == nil || v == accessor || !v.spec() {
			return
		}
		switch v.state {
		case taskRunning, taskFinishing, taskFinished:
		default:
			return
		}
		inWS := v.ws.MayContainProbe(&m.probe)
		inRS := v.rs.MayContainProbe(&m.probe)
		if inWS || inRS {
			anySpec = true
		}
		// A write conflicts with earlier reads and writes of later tasks;
		// a read conflicts only with later writes.
		if !(inWS || (isWrite && inRS)) {
			return
		}
		cost++
		m.st.VTCompares++
		if accessor.vt.Less(v.vt) {
			*victims = append(*victims, victimRef{t: v, key: key})
		}
	}

	start := len(*victims)
	if tt.ws0.rows != nil {
		// Way-0 fast path: only tasks whose way-0 bit for this line is set
		// can pass a signature probe; everything else would miss at way 0.
		// Probing exactly those tasks is bit-identical to scanning all.
		i0 := m.probe.Way0()
		wsRow, rsRow := tt.ws0.rows[i0], tt.rs0.rows[i0]
		nw := len(wsRow)
		if len(rsRow) > nw {
			nw = len(rsRow)
		}
		for w := 0; w < nw; w++ {
			var bits uint64
			if w < len(wsRow) {
				bits = wsRow[w]
			}
			if w < len(rsRow) {
				bits |= rsRow[w]
			}
			for bits != 0 {
				v := tt.slotTasks[w*64+trailingZeros(bits)]
				bits &= bits - 1
				probe(v, probeKey(v))
				if v.state == taskFinishing {
					// A finishing task holds its core and a finish-wait
					// entry; the architectural scan probes it in both.
					probe(v, keyFinishWait|v.qSeq)
				}
			}
		}
	} else {
		// Precise signatures have no ways: scan every resident task.
		base := tileID * m.cfg.CoresPerTile
		for i := 0; i < m.cfg.CoresPerTile; i++ {
			probe(m.cores[base+i].task, keyCore|uint64(i))
		}
		for _, v := range tt.commitQ.s {
			probe(v, keyCommitQ|v.qSeq)
		}
		for _, v := range tt.finishWait.s {
			probe(v, keyFinishWait|v.qSeq)
		}
	}
	sortVictims((*victims)[start:])
	return cost, anySpec
}

// Victim-order keys: group in the top bits (cores, commit queue,
// finish-wait — the architectural probe order), entry order below.
const (
	keyCore       = uint64(0) << 62
	keyCommitQ    = uint64(1) << 62
	keyFinishWait = uint64(2) << 62
)

// probeKey returns a resident task's first-occurrence probe-order key.
func probeKey(v *task) uint64 {
	if v.core >= 0 {
		return keyCore | uint64(v.core)
	}
	return keyCommitQ | v.qSeq
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// sortVictims orders a victim segment by probe-order key (insertion sort:
// segments are tiny and already mostly ordered).
func sortVictims(v []victimRef) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j].key < v[j-1].key; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// abortTask squashes a task and, transitively, its dependents (§4.5,
// Fig 10): children are aborted and discarded; the undo log is walked in
// LIFO order, and each restored write is conflict-checked so tasks that
// read the squashed data abort too. Conflict victims (discard=false) are
// returned to their task queue to re-execute; children of aborted parents
// (discard=true) are removed entirely — the parent will recreate them.
func (m *Machine) abortTask(t *task, discard bool) {
	switch t.state {
	case taskCommitted, taskKilled:
		return
	case taskIdle:
		if !discard {
			return // an idle task has no speculative state to squash
		}
		tt := m.tiles[t.tile]
		tt.idleQ.Remove(t)
		t.state = taskKilled
		m.freeSlot(t)
		return
	}

	m.st.Aborts++
	tt := m.tiles[t.tile]
	tt.abortsCount++
	if debugAbortHook != nil {
		debugAbortHook(m, t, discard)
	}
	// 1. Notify children to abort and be removed from their task queues.
	children := t.children
	t.children = nil
	for _, ch := range children {
		m.mesh.Send(t.tile, ch.tile, noc.ClassAbort, noc.AbortMsgBytes)
		m.abortTask(ch, true)
	}
	// Restore the detached slice's capacity for the recycled task struct
	// (nothing can have appended mid-loop: t holds no running guest).
	if t.children == nil {
		t.children = children[:0]
	}

	// Detach from core / commit queue.
	switch t.state {
	case taskRunning:
		if t.pendingEv != nil {
			// Refund the charged-but-unelapsed cycles of the in-flight
			// operation so cycle accounting sums exactly.
			if rem := t.pendingEv.Cycle() - m.eng.Now(); rem > 0 {
				if rem > t.cyc {
					rem = t.cyc
				}
				t.cyc -= rem
				m.cores[t.core].wallWorker -= rem
			}
			t.pendingEv.Cancel()
			t.pendingEv = nil
		}
		if t.co != nil {
			t.co.Resume(guest.Result{Abort: true}) // unwind the guest
			m.releaseCoroutine(t)
		}
		c := m.cores[t.core]
		c.abortedCyc += t.cyc
		c.task = nil
		t.core = -1
		m.scheduleDispatch(c, 1)
	case taskFinishing:
		tt.finishWait.Remove(t)
		c := m.cores[t.core]
		c.abortedCyc += t.cyc
		c.task = nil
		t.core = -1
		m.scheduleDispatch(c, 1)
	case taskFinished:
		tt.commitQ.Remove(t)
		if t.core >= 0 {
			panic("core: finished task still bound to a core")
		}
		m.cores[m.ranCore(t)].abortedCyc += t.cyc
	}

	// Drop out of the way-0 index before the undo walk: the task is now
	// detached from its core and queues, so the architectural scan can no
	// longer see it — nested rollback checks must not find it either.
	m.releaseSlot(tt, t)

	// 2. Walk the undo log in LIFO order. Each restore is a conflict-
	// checked write at t's virtual time: later readers/writers abort
	// first (restoring their own state), then the old value goes back.
	for i := len(t.undo) - 1; i >= 0; i-- {
		rec := t.undo[i]
		m.rollbackWrite(t, rec.addr)
		m.gmem.Store(rec.addr, rec.old)
		m.mesh.Account(t.tile, noc.ClassAbort, noc.HeaderBytes+mem.WordBytes)
	}
	t.undo = t.undo[:0]

	// 3. Clear signatures; free the commit queue entry.
	t.rs.Clear()
	t.ws.Clear()
	m.heap.DropQuarantine(t.allocToken)
	t.allocToken = m.nextToken()
	t.cyc = 0
	t.vt = vt0

	if discard {
		t.state = taskKilled
		m.freeSlot(t)
	} else {
		t.state = taskIdle
		t.seq = m.nextSeq()
		tt.idleQ.Push(t)
		m.wakeOneStalled(tt)
	}
	m.promoteFinishWaiters(tt)
}

// ranCore returns the core that executed a no-longer-running task; cycle
// attribution needs it. Dispatch always records lastCore, so a missing id
// would silently mis-attribute aborted cycles to the tile's core 0 — treat
// it as the invariant violation it is.
func (m *Machine) ranCore(t *task) int {
	if t.lastCore >= 0 {
		return t.lastCore
	}
	if m.cfg.DebugChecks {
		panic(fmt.Sprintf("core: task %v reached %v without a recorded core", t.vt, t.state))
	}
	return t.tile * m.cfg.CoresPerTile
}

// rollbackWrite aborts every later-virtual-time task that read or wrote the
// line, using the directory's sharer/sticky bits to find candidate tiles —
// the same conflict-detection logic as normal operation (§4.5).
func (m *Machine) rollbackWrite(t *task, addr uint64) {
	line := mem.Line(addr)
	mask := m.hier.DirTiles(line) | 1<<uint(t.tile)
	victims := m.getVictims()
	m.probe.Fill(m.cfg.Bloom, line)
	for tl := 0; tl < m.cfg.Tiles; tl++ {
		if mask&(1<<uint(tl)) == 0 {
			continue
		}
		// A rollback write behaves as a write: it conflicts with later
		// readers and writers.
		m.checkTile(tl, t, line, true, &victims)
	}
	for _, r := range victims {
		if t.vt.Less(r.t.vt) {
			m.abortTask(r.t, false)
		}
	}
	m.putVictims(victims)
}
