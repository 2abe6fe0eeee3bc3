package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/mem"
	"github.com/swarm-sim/swarm/internal/noc"
	"github.com/swarm-sim/swarm/internal/sim"
	"github.com/swarm-sim/swarm/internal/tsdom"
	"github.com/swarm-sim/swarm/internal/vt"
)

// cpu is one simple core (IPC-1 except misses and Swarm instructions).
type cpu struct {
	id, tile int
	task     *task

	// dispatchFn is the pre-bound dispatch event callback (built once in
	// NewMachine) so scheduling a dispatch allocates no closure.
	dispatchFn func()

	lastVT  vt.Time
	everRan bool

	dispatchPending bool
	inStallList     bool

	// wall-clock busy accounting (worker vs spill); stall is the
	// remainder of elapsed time.
	wallWorker uint64
	wallSpill  uint64
	// outcome attribution (Fig 14): filled when tasks commit or abort.
	committedCyc uint64
	abortedCyc   uint64
}

// tile is one task unit: task queue + order queue + commit queue (§4.2).
type tile struct {
	id     int
	nTasks int // occupied task queue entries

	idleQ      orderQueue
	commitQ    vtHeap // finished tasks, min-heap on virtual time
	finishWait vtHeap // finished tasks stalled waiting for a CQ entry

	// overflow holds task descriptors spilled to memory when the queue is
	// full and the enqueuer is the GVT task (§4.7 deadlock avoidance).
	// It is a min-heap on timestamp.
	overflow descHeap

	// ws0/rs0 index the tile's speculative tasks by way-0 signature bit:
	// ws0[i] is a bitmap (over tile slot ids) of the tasks whose write-set
	// filter has way-0 bit i set, and likewise rs0 for read sets. A
	// signature probe can only hit a task whose way-0 bit for the probed
	// line is set, so conflict checks probe exactly the tasks these
	// bitmaps name instead of scanning every core and commit queue entry —
	// the host-side equivalent of the hardware's parallel signature CAM
	// (Fig 8), with bit-exact results. Unused (nil) for Precise
	// signatures, which have no ways; those configs scan fully.
	ws0, rs0 slotBitmaps

	// slotTasks maps tile slot ids to the dispatched speculative tasks
	// holding them; freeSlots recycles ids. Slots are assigned at dispatch
	// and released when the task's signatures are cleared (abort/commit).
	slotTasks []*task
	freeSlots []int32

	lastDequeue   uint64
	everDequeued  bool
	stalledCores  []int
	coalescing    bool
	coalescerTS   uint64     // min timestamp of an in-flight coalescer batch
	coalescerPath tsdom.Path // nested path paired with coalescerTS
	coalescerLive bool
	spillWanted   bool
	commitsCount  uint64 // per-tile, for tracing
	abortsCount   uint64

	// Occupancy sums over GVT rounds: Stats.TileTaskQOcc/TileCommitQOcc.
	tqOccSum, cqOccSum uint64
}

// Machine is a full Swarm CMP.
type Machine struct {
	cfg  Config
	eng  sim.Engine
	gmem *mem.Memory
	heap *mem.Allocator
	mesh *noc.Mesh
	hier *cache.Hierarchy

	tiles  []*tile
	cores  []*cpu
	fns    []guest.TaskFn
	rng    *rand.Rand
	mapper mapper

	seqCtr   uint64
	tokCtr   uint64
	batchCtr uint64
	qSeqCtr  uint64

	// dryRounds counts consecutive GVT rounds without a commit — the
	// trigger for the overflow liveness backstop (see rescueOverflow).
	dryRounds uint64

	spillStore map[uint64]spillBatch

	gvt  vt.Time
	done bool

	// gvtFn and traceFn are the pre-bound periodic event callbacks.
	gvtFn   func()
	traceFn func()

	filterPool []*bloom.Filter

	// Hot-path scratch storage (§4.3 conflict checks run on every access;
	// none of them may allocate in steady state).
	tilesScratch []int         // snapshot of cache.Result.CheckTiles
	victimPool   [][]victimRef // conflict-victim buffers (aborts recurse)
	probe        bloom.Probe   // per-line signature probe, shared by a check batch

	// Task-struct recycling. Freed tasks rest in a graveyard until the
	// engine moves to a later event: abort cascades may still hold freed
	// tasks in victim buffers on the stack, but such references never
	// survive the event that created them, so age (in fired events) makes
	// reuse safe. taskGrave is a FIFO (head..len); entries before head are
	// nil.
	taskGrave []*task
	graveHead int

	// st holds the run's counters; collectStats adds the clock, caches,
	// NoC and cores to it.
	st      Stats
	tracer  *tracer
	running bool
	phase   int // RunPhase calls so far: the running phase's index
}

// NewMachine builds a machine for the config, parked at its initial
// quiescent point: guest memory may be laid out and roots enqueued before
// SetProgram installs the task functions and the first RunPhase runs them.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mp, err := newMapper(cfg.Mapper)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:        cfg,
		gmem:       mem.New(),
		heap:       mem.NewAllocator(),
		mesh:       noc.New(cfg.Tiles),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		mapper:     mp,
		spillStore: make(map[uint64]spillBatch),
		done:       true, // quiescent until a phase runs
		st:         Stats{Backend: "sim", Cores: cfg.Cores(), Tiles: cfg.Tiles, Mapper: mp.name()},
	}
	m.gvtFn = m.gvtRound
	m.hier = cache.New(cfg.Cache, m.mesh)
	m.tiles = make([]*tile, cfg.Tiles)
	for i := range m.tiles {
		t := &tile{id: i}
		if n := cfg.Bloom.Way0Bits(); n > 0 {
			t.ws0.init(n)
			t.rs0.init(n)
		}
		m.tiles[i] = t
	}
	m.cores = make([]*cpu, cfg.Cores())
	for i := range m.cores {
		c := &cpu{id: i, tile: i / cfg.CoresPerTile}
		c.dispatchFn = func() {
			c.dispatchPending = false
			m.dispatch(c)
		}
		m.cores[i] = c
	}
	if cfg.TraceInterval > 0 {
		m.tracer = newTracer(m)
	}
	return m, nil
}

// SetProgram installs the program's task functions. Must be called before
// the first RunPhase.
func (m *Machine) SetProgram(ft *guest.FnTable) { m.fns = ft.Fns() }

// Mem exposes guest memory (for setup and for result verification).
func (m *Machine) Mem() *mem.Memory { return m.gmem }

// SetupAlloc allocates guest memory with no simulated cost; valid at
// quiescent points (initialization is outside the measured region).
func (m *Machine) SetupAlloc(nBytes uint64) uint64 { return m.heap.AllocLineAligned(nBytes) }

// EnqueueRootDesc inserts a parentless task descriptor at zero cost; valid
// at quiescent points.
func (m *Machine) EnqueueRootDesc(d guest.TaskDesc) {
	target := m.mapper.place(m, d, -1)
	tt := m.tiles[target]
	if m.hasSpace(tt) {
		m.insertIdle(tt, m.newTask(d, target, nil))
	} else {
		heap.Push(&tt.overflow, d)
	}
}

// QueuedTasks returns the number of task descriptors waiting anywhere in
// the machine — hardware task queues, memory overflow buffers and spilled
// batches. At a quiescent point this is exactly the work the next RunPhase
// would execute.
func (m *Machine) QueuedTasks() int {
	n := 0
	for _, tt := range m.tiles {
		n += tt.nTasks + len(tt.overflow)
	}
	for _, b := range m.spillStore {
		n += len(b.descs)
	}
	return n
}

// SetupFree releases guest memory with no simulated cost; valid at
// quiescent points (setup and between phases), where no task can hold a
// speculative reference to the region.
func (m *Machine) SetupFree(addr, nBytes uint64) {
	m.heap.Free(0, addr, nBytes)
	m.heap.ReleaseQuarantine(0)
}

// RunPhase executes queued work to quiescence (§4.1's termination
// condition: all queues empty, all tasks committed) and returns the
// phase's statistics. It is resumable: after it returns, callers may
// mutate guest memory at setup cost, enqueue new root tasks, and call
// RunPhase again — the clock, caches and queue state carry over, so later
// phases run against the warmed machine.
func (m *Machine) RunPhase() (PhaseStats, error) {
	if m.running {
		return PhaseStats{}, errors.New("core: RunPhase re-entered mid-phase")
	}
	m.phase++
	m.running = true
	m.done = false
	start := m.collectStats()
	for _, c := range m.cores {
		if c.task == nil {
			m.scheduleDispatch(c, 0)
		}
	}
	m.eng.After(m.cfg.GVTPeriod, m.gvtFn)
	if m.tracer != nil {
		if m.traceFn == nil {
			m.traceFn = m.tracer.sample
		}
		m.eng.After(m.cfg.TraceInterval, m.traceFn)
	}
	limit := m.cfg.MaxCycles
	if limit != 0 {
		limit += start.Cycles // per-phase budget, absolute engine cycle
	}
	err := m.eng.Run(limit)
	m.running = false
	if err != nil {
		return PhaseStats{}, fmt.Errorf("core: %w (likely livelock: %s)", err, m.describeState())
	}
	if !m.done {
		return PhaseStats{}, fmt.Errorf("core: simulation stalled at cycle %d: %s", m.eng.Now(), m.describeState())
	}
	return PhaseOf(m.phase, start, m.collectStats()), nil
}

// Snapshot returns cumulative statistics at a quiescent point (before
// the first phase, between phases, or after the final phase) without
// disturbing the machine: sessions sample mid-run occupancy/commit/NoC
// state here.
func (m *Machine) Snapshot() Stats { return m.collectStats() }

func (m *Machine) describeState() string {
	tq, cq, fw, idle, ovf := 0, 0, 0, 0, 0
	coal := 0
	for _, t := range m.tiles {
		tq += t.nTasks
		cq += t.commitQ.Len()
		fw += t.finishWait.Len()
		idle += t.idleQ.Len()
		ovf += len(t.overflow)
		if t.coalescing {
			coal++
		}
	}
	cores := ""
	for _, c := range m.cores {
		switch {
		case c.task == nil:
			cores += "-"
		default:
			ev := "noev"
			if c.task.pendingEv != nil && !c.task.pendingEv.Cancelled() {
				ev = fmt.Sprintf("ev@%d", c.task.pendingEv.Cycle())
			}
			cores += fmt.Sprintf("[%s k=%d vt=%v %s]", c.task.state, c.task.kind, c.task.vt, ev)
		}
	}
	return fmt.Sprintf("%d queued (%d idle, %d finishWait), %d in commit queues, %d overflowed, %d coalescing, %d spill batches, cores=%s, gvt=%v, commits=%d aborts=%d dequeues=%d nacks=%d spilled=%d",
		tq, idle, fw, cq, ovf, coal, len(m.spillStore), cores, m.gvt,
		m.st.Commits, m.st.Aborts, m.st.Dequeues, m.st.NACKs, m.st.SpilledTasks)
}

// ---------------------------------------------------------------- tasks --

func (m *Machine) newTask(d guest.TaskDesc, tileID int, parent *task) *task {
	t := m.allocTask()
	t.desc = d
	t.tile = tileID
	t.seq = m.nextSeq()
	t.allocToken = m.nextToken()
	if parent != nil {
		t.parent = parent
		parent.children = append(parent.children, t)
	}
	t.rs = m.getFilter()
	t.ws = m.getFilter()
	return t
}

func (m *Machine) nextSeq() uint64   { m.seqCtr++; return m.seqCtr }
func (m *Machine) nextToken() uint64 { m.tokCtr++; return m.tokCtr }

// allocTask returns a zeroed task, recycling the graveyard head when it was
// freed in an earlier engine event (see taskGrave).
func (m *Machine) allocTask() *task {
	if m.graveHead < len(m.taskGrave) && m.taskGrave[m.graveHead].graveEv < m.eng.Fired() {
		t := m.taskGrave[m.graveHead]
		m.taskGrave[m.graveHead] = nil
		m.graveHead++
		if m.graveHead == len(m.taskGrave) {
			m.taskGrave = m.taskGrave[:0]
			m.graveHead = 0
		}
		// Reset everything except the retained capacities (children, undo)
		// and the pre-bound event callback.
		t.desc = guest.TaskDesc{}
		t.kind = kindWorker
		t.state = taskIdle
		t.seq = 0
		t.vt = vt0
		t.parent = nil
		t.children = t.children[:0]
		t.undo = t.undo[:0]
		t.co = nil
		t.core = -1
		t.lastCore = -1
		t.cyc = 0
		t.pendingEv = nil
		t.inBackoff = false
		t.pend = 0
		t.pendVal = 0
		t.pendDesc = guest.TaskDesc{}
		t.pendAttempt = 0
		t.batch = 0
		t.allocToken = 0
		t.heapIdx = -1
		t.cqIdx = -1
		t.qSeq = 0
		t.slot = -1
		return t
	}
	t := &task{core: -1, lastCore: -1, heapIdx: -1, cqIdx: -1, slot: -1}
	t.evFn = func() { m.taskEvent(t) }
	return t
}

// graveTask parks a freed task for recycling once the engine has moved on.
func (m *Machine) graveTask(t *task) {
	t.graveEv = m.eng.Fired()
	m.taskGrave = append(m.taskGrave, t)
}

// slotBitmaps is one way-0 task index: rows[i] is a bitmap over tile slot
// ids of the tasks whose signature has way-0 bit i set. Rows grow lazily
// as the slot population crosses multiples of 64.
type slotBitmaps struct {
	rows [][]uint64
}

func (b *slotBitmaps) init(nBits int) {
	b.rows = make([][]uint64, nBits)
	// Pre-carve two words (128 slots) per row from one flat backing: tile
	// slot populations are bounded by cores + commit queue + finish-wait,
	// which fits in 128 for every bounded configuration. Unbounded-queue
	// runs grow individual rows past their carved capacity as needed.
	flat := make([]uint64, nBits*2)
	for i := range b.rows {
		b.rows[i] = flat[i*2 : i*2 : i*2+2]
	}
}

func (b *slotBitmaps) set(i uint32, slot int32) {
	row := b.rows[i]
	for int(slot>>6) >= len(row) {
		row = append(row, 0)
	}
	row[slot>>6] |= 1 << (slot & 63)
	b.rows[i] = row
}

// clear drops slot from every row whose bit is set in way0, the words
// of a signature's way 0 (bloom.Filter.Way0Words).
func (b *slotBitmaps) clear(way0 []uint64, slot int32) {
	for wi, w := range way0 {
		for ; w != 0; w &= w - 1 {
			if row := b.rows[wi*64+trailingZeros(w)]; int(slot>>6) < len(row) {
				row[slot>>6] &^= 1 << (slot & 63)
			}
		}
	}
}

// assignSlot gives a dispatched speculative task a tile slot id.
func (m *Machine) assignSlot(tt *tile, t *task) {
	if n := len(tt.freeSlots); n > 0 {
		t.slot = tt.freeSlots[n-1]
		tt.freeSlots = tt.freeSlots[:n-1]
		tt.slotTasks[t.slot] = t
		return
	}
	t.slot = int32(len(tt.slotTasks))
	tt.slotTasks = append(tt.slotTasks, t)
}

// releaseSlot drops a task from the way-0 index and recycles its slot
// id. It must run before the task's signatures are cleared: their way-0
// bits name exactly the rows its inserts set.
func (m *Machine) releaseSlot(tt *tile, t *task) {
	if t.slot < 0 {
		return
	}
	tt.ws0.clear(t.ws.Way0Words(), t.slot)
	tt.rs0.clear(t.rs.Way0Words(), t.slot)
	tt.slotTasks[t.slot] = nil
	tt.freeSlots = append(tt.freeSlots, t.slot)
	t.slot = -1
}

// releaseCoroutine returns a task's finished coroutine to the guest pool.
func (m *Machine) releaseCoroutine(t *task) {
	if t.co != nil {
		t.co.Recycle()
		t.co = nil
	}
}

// victimRef is one conflict victim plus its probe-order key (see
// checkTile): aborts must run in the architectural probe order no matter
// how the candidate search found the task.
type victimRef struct {
	t   *task
	key uint64
}

// getVictims hands out an empty conflict-victim buffer; putVictims returns
// it. Buffers come from a small pool because aborts recurse (an abort's
// rollback conflict-checks and may abort further tasks).
func (m *Machine) getVictims() []victimRef {
	if n := len(m.victimPool); n > 0 {
		v := m.victimPool[n-1]
		m.victimPool = m.victimPool[:n-1]
		return v[:0]
	}
	return make([]victimRef, 0, 8)
}

func (m *Machine) putVictims(v []victimRef) {
	m.victimPool = append(m.victimPool, v)
}

func (m *Machine) getFilter() *bloom.Filter {
	if n := len(m.filterPool); n > 0 {
		f := m.filterPool[n-1]
		m.filterPool = m.filterPool[:n-1]
		return f
	}
	return bloom.NewFilter(m.cfg.Bloom)
}

func (m *Machine) putFilter(f *bloom.Filter) {
	if f == nil {
		return
	}
	f.Clear()
	m.filterPool = append(m.filterPool, f)
}

func (m *Machine) hasSpace(tt *tile) bool {
	return m.cfg.UnboundedQueues || tt.nTasks < m.cfg.TaskQPerTile()
}

// insertIdle places a task in a tile's task queue and order queue, waking a
// stalled core and applying the §4.7 full-queue policies.
func (m *Machine) insertIdle(tt *tile, t *task) {
	tt.nTasks++
	t.state = taskIdle
	t.tile = tt.id
	tt.idleQ.Push(t)
	m.wakeOneStalled(tt)
	m.checkSpillTrigger(tt)
	m.coresPolicy(tt, t)
}

// coresPolicy implements §4.7 "Cores": if a task arrives, the commit queue
// is full, and the task precedes every task running on this tile's cores,
// abort the highest-virtual-time running task so the earlier task can make
// progress.
func (m *Machine) coresPolicy(tt *tile, arrived *task) {
	if m.cfg.UnboundedQueues || tt.commitQ.Len() < m.cfg.CommitQPerTile() {
		return
	}
	bound := arrived.boundVT(m.eng.Now())
	var maxRun *task
	base := tt.id * m.cfg.CoresPerTile
	for i := 0; i < m.cfg.CoresPerTile; i++ {
		c := m.cores[base+i]
		if c.task == nil || c.task.state != taskRunning || !c.task.spec() {
			return // a core is free or non-abortable: no need / no ability
		}
		if c.task.vt.Less(bound) {
			return // arrived does not precede every running task
		}
		if maxRun == nil || maxRun.vt.Less(c.task.vt) {
			maxRun = c.task
		}
	}
	if maxRun != nil {
		m.st.PolicyAborts++
		m.abortTask(maxRun, false)
	}
}

func (m *Machine) wakeOneStalled(tt *tile) {
	for len(tt.stalledCores) > 0 {
		id := tt.stalledCores[0]
		tt.stalledCores = tt.stalledCores[1:]
		c := m.cores[id]
		c.inStallList = false
		if c.task == nil {
			m.scheduleDispatch(c, 1)
			return
		}
	}
}

func (m *Machine) freeSlot(t *task) {
	tt := m.tiles[t.tile]
	tt.nTasks--
	if tt.nTasks < 0 {
		panic("core: task queue underflow")
	}
	m.putFilter(t.rs)
	m.putFilter(t.ws)
	t.rs, t.ws = nil, nil
	m.graveTask(t)
	m.drainOverflow(tt)
}

// drainOverflow re-materializes software-overflowed descriptors, smallest
// timestamp first. Refills stop at the spill threshold — draining into a
// nearly-full queue would just re-trigger the coalescer (and can starve
// splitters of the room they need) — except that the overflow head is
// always rescued when it precedes every idle task, so the globally
// earliest work stays reachable.
func (m *Machine) drainOverflow(tt *tile) {
	spillLimit := m.cfg.TaskQPerTile() * spillThresholdPct / 100
	for len(tt.overflow) > 0 && m.hasSpace(tt) {
		belowLimit := m.cfg.UnboundedQueues || tt.nTasks < spillLimit
		if !belowLimit {
			minIdle := tt.idleQ.Min()
			if minIdle != nil && minIdle.desc.Compare(tt.overflow[0]) <= 0 {
				return // head is already in hardware; wait for room
			}
		}
		d := heap.Pop(&tt.overflow).(guest.TaskDesc)
		m.insertIdle(tt, m.newTask(d, tt.id, nil))
	}
}

// ------------------------------------------------------------- dispatch --

func (m *Machine) scheduleDispatch(c *cpu, delay uint64) {
	if c.dispatchPending || m.done {
		return
	}
	c.dispatchPending = true
	m.eng.After(delay, c.dispatchFn)
}

// taskEvent is the single event callback every per-task event routes
// through (via task.evFn): it decodes the pending-event kind recorded at
// schedule time. Events are cancelled whenever their task is squashed or
// detached, so at fire time the task is still bound to its core.
func (m *Machine) taskEvent(t *task) {
	t.pendingEv = nil
	if t.pend == pendEnqRetry {
		// Defensive: the retry is cancelled on abort, but never resume a
		// task that is no longer running.
		if t.state == taskRunning {
			m.enqueueOp(m.cores[t.core], t, t.pendDesc, t.pendAttempt)
		}
		return
	}
	c := m.cores[t.core]
	switch t.pend {
	case pendStart:
		m.startBody(c, t)
	case pendResume:
		m.resumeTask(c, t, guest.Result{Val: t.pendVal})
	case pendResumeOK:
		m.resumeTask(c, t, guest.Result{OK: true})
	case pendFinish:
		m.tryFinish(c, t)
	}
}

// schedule arms t's pre-bound event callback: kind and payload now, fire in
// delay cycles.
func (m *Machine) schedule(t *task, delay uint64, kind pendKind, val uint64) {
	t.pend = kind
	t.pendVal = val
	t.pendingEv = m.eng.After(delay, t.evFn)
}

// dispatch implements dequeue_task on a free core: run a coalescer if the
// task queue needs spilling, else dispatch the smallest-timestamp idle
// task, else stall until work arrives (§4.1: dequeue_task stalls the core,
// avoiding busy-waiting).
func (m *Machine) dispatch(c *cpu) {
	if m.done || c.task != nil {
		return
	}
	tt := m.tiles[c.tile]
	if tt.spillWanted && !tt.coalescing {
		if m.runCoalescer(c) {
			return
		}
	}
	t := tt.idleQ.Min()
	if t == nil {
		if !c.inStallList {
			c.inStallList = true
			tt.stalledCores = append(tt.stalledCores, c.id)
		}
		return
	}
	now := m.eng.Now()
	if tt.everDequeued && tt.lastDequeue == now {
		// At most one dequeue per tile per cycle keeps virtual times
		// unique (§4.4).
		m.scheduleDispatch(c, 1)
		return
	}
	tt.lastDequeue = now
	tt.everDequeued = true
	tt.idleQ.Remove(t)

	t.state = taskRunning
	t.core = c.id
	t.lastCore = c.id
	c.task = t
	t.vt = descBoundVT(t.desc.TS, t.desc.Path, now, tt.id)
	if t.spec() {
		m.assignSlot(tt, t)
	}
	m.st.Dequeues++

	// L1 conflict-filter invariant: flash-clear when running backwards.
	if c.everRan && t.vt.Less(c.lastVT) {
		m.hier.FlashClearL1(c.id)
	}
	c.lastVT = t.vt
	c.everRan = true

	m.busy(c, t, dequeueCost)
	m.schedule(t, dequeueCost, pendStart, 0)
}

func (m *Machine) startBody(c *cpu, t *task) {
	if t.kind == kindSplitter {
		m.runSplitter(c, t)
		return
	}
	if int(t.desc.Fn) < 0 || int(t.desc.Fn) >= len(m.fns) {
		panic(fmt.Sprintf("core: task function #%d out of range", int(t.desc.Fn)))
	}
	t.co = guest.StartTask(m.fns[t.desc.Fn], t.desc)
	m.resumeTask(c, t, guest.Result{})
}

// busy charges cycles to a task and its core's wall-clock busy bucket.
func (m *Machine) busy(c *cpu, t *task, cycles uint64) {
	t.cyc += cycles
	if t.spec() {
		c.wallWorker += cycles
	} else {
		c.wallSpill += cycles
	}
}

func (m *Machine) resumeTask(c *cpu, t *task, r guest.Result) {
	op := t.co.Resume(r)
	m.handleOp(c, t, op)
}

func (m *Machine) handleOp(c *cpu, t *task, op guest.Op) {
	switch op.Kind {
	case guest.OpWork:
		m.busy(c, t, op.N)
		m.schedule(t, op.N, pendResume, 0)

	case guest.OpLoad, guest.OpStore:
		lat, val := m.access(c, t, op)
		m.busy(c, t, lat)
		m.schedule(t, lat, pendResume, val)

	case guest.OpEnqueue:
		m.enqueueOp(c, t, op.Task, 0)

	case guest.OpAlloc:
		addr := m.heap.Alloc(op.N)
		m.busy(c, t, mem.AllocCycles)
		m.schedule(t, mem.AllocCycles, pendResume, addr)

	case guest.OpFree:
		m.heap.Free(t.allocToken, op.Addr, op.N)
		m.busy(c, t, mem.AllocCycles)
		m.schedule(t, mem.AllocCycles, pendResume, 0)

	case guest.OpDone:
		m.releaseCoroutine(t)
		m.busy(c, t, finishCost)
		m.schedule(t, finishCost, pendFinish, 0)

	default:
		panic(fmt.Sprintf("core: unsupported op %v on a Swarm machine", op.Kind))
	}
}

// enqueueOp implements enqueue_task (Fig 5): send the descriptor to the
// tile the machine's mapper picks (uniform-random in the paper's design);
// on NACK (queue full of speculative tasks) retry with linear backoff; the
// GVT task's children overflow to memory instead (§4.7).
func (m *Machine) enqueueOp(c *cpu, t *task, d guest.TaskDesc, attempt int) {
	t.inBackoff = false
	m.busy(c, t, enqueueCost)
	target := m.mapper.place(m, d, t.tile)
	tt := m.tiles[target]
	m.st.Enqueues++
	m.mesh.Send(t.tile, target, noc.ClassEnqueue, noc.TaskDescBytes)

	switch {
	case m.hasSpace(tt):
		var parent *task
		if t.spec() {
			parent = t
		}
		child := m.newTask(d, target, parent)
		m.insertIdle(tt, child)
		m.mesh.Send(target, t.tile, noc.ClassEnqueue, noc.AckBytes)

	case !m.gvt.Less(t.vt):
		// t is the GVT task: its children may overflow to memory so it
		// always makes progress (no parent tracking needed).
		heap.Push(&tt.overflow, d)
		m.mesh.Send(target, t.tile, noc.ClassEnqueue, noc.AckBytes)

	default:
		// NACK; retry with linear backoff, capped so a task that becomes
		// the GVT task discovers its overflow privilege promptly. The
		// wait is not attributed to the task (it surfaces as stall time).
		m.mesh.Send(target, t.tile, noc.ClassEnqueue, noc.AckBytes)
		m.st.NACKs++
		backoff := enqueueCost + uint64(attempt+1)*10
		if backoff > m.cfg.GVTPeriod/2 {
			backoff = m.cfg.GVTPeriod / 2
		}
		if t.state == taskRunning { // insertIdle policies may have squashed t
			t.inBackoff = true
			t.pendDesc = d
			t.pendAttempt = attempt + 1
			m.schedule(t, backoff, pendEnqRetry, 0)
		}
		return
	}

	if t.state == taskRunning { // a full-queue policy may have aborted t
		m.schedule(t, enqueueCost, pendResumeOK, 0)
	}
}

// tryFinish moves a finished worker into the commit queue, applying the
// §4.7 commit-queue policy when it is full.
func (m *Machine) tryFinish(c *cpu, t *task) {
	tt := m.tiles[t.tile]
	if !m.cfg.UnboundedQueues && tt.commitQ.Len() >= m.cfg.CommitQPerTile() {
		// If t precedes the highest-VT finished task, abort that task
		// and take its entry; otherwise stall the core until one frees.
		// The heap only knows its minimum, so the max is a linear scan —
		// this path runs only when the commit queue is full.
		var maxF *task
		for _, f := range tt.commitQ.s {
			if maxF == nil || maxF.vt.Less(f.vt) {
				maxF = f
			}
		}
		if maxF != nil && t.vt.Less(maxF.vt) {
			m.st.PolicyAborts++
			m.abortTask(maxF, false)
		} else {
			t.state = taskFinishing
			t.qSeq = m.nextQSeq()
			tt.finishWait.Push(t)
			return // core stays held; commit/abort will free it
		}
	}
	t.state = taskFinished
	t.qSeq = m.nextQSeq()
	tt.commitQ.Push(t)
	m.releaseCore(c, t)
}

func (m *Machine) releaseCore(c *cpu, t *task) {
	c.task = nil
	t.core = -1
	m.scheduleDispatch(c, 1)
}

// promoteFinishWaiters grants freed commit queue entries to stalled
// finished tasks in virtual-time order.
func (m *Machine) promoteFinishWaiters(tt *tile) {
	for tt.finishWait.Len() > 0 &&
		(m.cfg.UnboundedQueues || tt.commitQ.Len() < m.cfg.CommitQPerTile()) {
		w := tt.finishWait.PopMin()
		w.state = taskFinished
		w.qSeq = m.nextQSeq()
		tt.commitQ.Push(w)
		m.releaseCore(m.cores[w.core], w)
	}
}

func (m *Machine) nextQSeq() uint64 { m.qSeqCtr++; return m.qSeqCtr }
