// Package oracle is the analysis tool behind Table 1 (§2.2): it executes a
// benchmark's tasks sequentially in timestamp order, profiling each task's
// instruction count and word-granularity read/write sets (excluding stack
// and scheduler accesses, which never appear in guest memory), then
// computes:
//
//   - maximum achievable parallelism (total instructions / critical path
//     through true data dependences and parent-child creation edges);
//   - parallelism under a bounded task window (1024, 64);
//   - instruction / read / write statistics (mean and 90th percentile);
//   - ideal-TLS parallelism of the *sequential* implementation, whose
//     iterations include the scheduling-structure accesses that create the
//     false dependences motivating Swarm (§3).
package oracle

import (
	"container/heap"
	"sort"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// BuildFn lays out guest data, registers named task functions on the build
// environment, and returns the root tasks (the same shape as a Swarm
// application's Build).
type BuildFn = func(b *guest.AppBuild) []guest.TaskDesc

// SerialBuildFn lays out guest data and returns the sequential
// implementation's body; the body must call iterMark at each loop
// iteration boundary (the TLS analysis treats iterations as tasks).
type SerialBuildFn = func(alloc func(uint64) uint64, store func(addr, val uint64)) func(e guest.Env, iterMark func())

// TaskStat profiles one task (or one sequential iteration).
type TaskStat struct {
	TS     uint64
	Instrs uint64
	Reads  []uint64 // unique word addresses
	Writes []uint64
	Parent int // creating task index, or -1
}

// Profile is an ordered set of task profiles (execution = index order).
type Profile struct {
	Tasks []TaskStat
}

// ---------------------------------------------------------------------------
// Profiling executors.
// ---------------------------------------------------------------------------

type profItem struct {
	desc   guest.TaskDesc
	seq    uint64
	parent int
}

type profHeap []profItem

func (h profHeap) Len() int { return len(h) }
func (h profHeap) Less(i, j int) bool {
	if h[i].desc.TS != h[j].desc.TS {
		return h[i].desc.TS < h[j].desc.TS
	}
	if c := tsdom.Compare(h[i].desc.Path, h[j].desc.Path); c != 0 {
		return c < 0
	}
	return h[i].seq < h[j].seq
}
func (h profHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *profHeap) Push(x any)   { *h = append(*h, x.(profItem)) }
func (h *profHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// profEnv implements guest.TaskEnv over a host map, recording footprints.
type profEnv struct {
	mem   map[uint64]uint64
	brk   uint64
	queue profHeap
	seq   uint64

	desc   guest.TaskDesc
	curIdx int
	instrs uint64
	forks  uint64
	reads  map[uint64]struct{}
	writes map[uint64]struct{}
}

func newProfEnv() *profEnv {
	return &profEnv{mem: make(map[uint64]uint64), brk: 1 << 20}
}

func (p *profEnv) resetTask() {
	p.instrs = 0
	p.forks = 0
	p.reads = make(map[uint64]struct{})
	p.writes = make(map[uint64]struct{})
}

func (p *profEnv) allocSetup(n uint64) uint64 {
	a := p.brk
	p.brk += (n + 63) &^ 63
	return a
}

// Load implements guest.Env.
func (p *profEnv) Load(addr uint64) uint64 {
	p.instrs++
	p.reads[addr] = struct{}{}
	return p.mem[addr]
}

// Store implements guest.Env.
func (p *profEnv) Store(addr, val uint64) {
	p.instrs++
	p.writes[addr] = struct{}{}
	p.mem[addr] = val
}

// Work implements guest.Env.
func (p *profEnv) Work(n uint64) { p.instrs += n }

// Alloc implements guest.Env.
func (p *profEnv) Alloc(n uint64) uint64 { p.instrs += 4; return p.allocSetup(n) }

// Free implements guest.Env.
func (p *profEnv) Free(uint64, uint64) { p.instrs += 4 }

// Timestamp implements guest.TaskEnv.
func (p *profEnv) Timestamp() uint64 { return p.desc.TS }

// Arg implements guest.TaskEnv.
func (p *profEnv) Arg(i int) uint64 { return p.desc.Args[i] }

// Enqueue implements guest.TaskEnv.
func (p *profEnv) Enqueue(fn guest.FnID, ts uint64, args ...uint64) {
	p.EnqueueArgs(fn, ts, guest.PackArgs(args))
}

// EnqueueArgs implements guest.TaskEnv. Children inherit the parent's
// nested path verbatim (matching the machine backends).
func (p *profEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	guest.CheckChildTS(ts, p.desc.TS)
	p.instrs++
	p.seq++
	heap.Push(&p.queue, profItem{desc: guest.TaskDesc{Fn: fn, TS: ts, Path: p.desc.Path, Args: args}, seq: p.seq, parent: p.curIdx})
}

// EnqueueHinted implements guest.TaskEnv; the oracle's idealized scheduler
// has no tiles, so the hint is dropped.
func (p *profEnv) EnqueueHinted(fn guest.FnID, ts uint64, _ uint64, args [3]uint64) {
	p.EnqueueArgs(fn, ts, args)
}

// Fork implements guest.TaskEnv.
func (p *profEnv) Fork(fn guest.FnID, args ...uint64) {
	p.EnqueueSub(fn, guest.NoHint, guest.PackArgs(args))
}

// EnqueueSub implements guest.TaskEnv: the child lands inside the
// parent's timestamp slot at the next fork index, so the profiler's
// serial schedule interleaves it exactly where the machines commit it.
func (p *profEnv) EnqueueSub(fn guest.FnID, _ uint64, args [3]uint64) {
	p.instrs++
	p.seq++
	d := guest.TaskDesc{Fn: fn, TS: p.desc.TS, Path: p.desc.Path.Child(p.forks), Args: args}
	p.forks++
	heap.Push(&p.queue, profItem{desc: d, seq: p.seq, parent: p.curIdx})
}

func setOf(m map[uint64]struct{}) []uint64 {
	s := make([]uint64, 0, len(m))
	for a := range m {
		s = append(s, a)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ProfileTasks profiles a Swarm application task by task, in timestamp
// order. Scheduler state (the task queue) is host-side, so queue accesses
// never pollute footprints — matching the pintool's filtering (§2.2).
func ProfileTasks(build BuildFn, maxTasks int) *Profile {
	env := newProfEnv()
	b := &guest.AppBuild{Alloc: env.allocSetup, Store: func(a, v uint64) { env.mem[a] = v }}
	roots := build(b)
	fns := b.Fns()
	for _, d := range roots {
		env.seq++
		heap.Push(&env.queue, profItem{desc: d, seq: env.seq, parent: -1})
	}
	prof := &Profile{}
	for env.queue.Len() > 0 {
		it := heap.Pop(&env.queue).(profItem)
		env.desc = it.desc
		env.curIdx = len(prof.Tasks)
		env.resetTask()
		fns[it.desc.Fn](env)
		prof.Tasks = append(prof.Tasks, TaskStat{
			TS:     it.desc.TS,
			Instrs: env.instrs,
			Reads:  setOf(env.reads),
			Writes: setOf(env.writes),
			Parent: it.parent,
		})
		if maxTasks > 0 && len(prof.Tasks) >= maxTasks {
			break
		}
	}
	return prof
}

// ProfileSerial profiles a sequential implementation, slicing it into
// iterations at iterMark boundaries (including priority-queue and other
// scheduler accesses — the false dependences TLS suffers, §3).
func ProfileSerial(build SerialBuildFn, maxIters int) *Profile {
	env := newProfEnv()
	body := build(env.allocSetup, func(a, v uint64) { env.mem[a] = v })
	prof := &Profile{}
	env.resetTask()
	first := true
	stop := false
	mark := func() {
		if stop {
			return
		}
		if !first {
			prof.Tasks = append(prof.Tasks, TaskStat{
				Instrs: env.instrs,
				Reads:  setOf(env.reads),
				Writes: setOf(env.writes),
				Parent: -1,
			})
			if maxIters > 0 && len(prof.Tasks) >= maxIters {
				stop = true
			}
		}
		first = false
		env.resetTask()
	}
	body(env, mark)
	mark() // close the final iteration
	return prof
}

// ---------------------------------------------------------------------------
// Analyses.
// ---------------------------------------------------------------------------

// TotalInstrs sums instruction counts.
func (p *Profile) TotalInstrs() uint64 {
	var t uint64
	for _, ts := range p.Tasks {
		t += ts.Instrs
	}
	return t
}

// MaxParallelism returns total instructions divided by the critical path
// through TRUE data dependences (RAW at word granularity — "task order
// dictates the direction of data flow in a dependence, but is otherwise
// superfluous", §2.2) plus parent-child creation edges. WAR and WAW edges
// are false dependences, removable by renaming, and are not counted —
// matching the paper's limit study and its ideal-TLS model (perfect
// speculation with immediate forwarding).
func (p *Profile) MaxParallelism() float64 { return p.WindowParallelism(0) }

// WindowParallelism is MaxParallelism under a T-task window: a task cannot
// start until all work more than T tasks behind has finished (§2.2,
// "Parallelism window=1K/64"). T = 0 means unbounded.
func (p *Profile) WindowParallelism(window int) float64 {
	if len(p.Tasks) == 0 {
		return 1
	}
	// lastWrite maps each word to the finish time of its latest writer in
	// task order. Later writers simply replace the entry (WAW renamed);
	// readers block on their producer only (RAW).
	lastWrite := make(map[uint64]uint64)
	finish := make([]uint64, len(p.Tasks))
	var maxFinish, total uint64
	for i, t := range p.Tasks {
		var start uint64
		if t.Parent >= 0 {
			start = finish[t.Parent]
		}
		if window > 0 && i >= window {
			if f := finish[i-window]; f > start {
				start = f
			}
		}
		for _, a := range t.Reads {
			if f := lastWrite[a]; f > start {
				start = f
			}
		}
		f := start + t.Instrs
		finish[i] = f
		if f > maxFinish {
			maxFinish = f
		}
		total += t.Instrs
		for _, a := range t.Writes {
			lastWrite[a] = f
		}
	}
	if maxFinish == 0 {
		return 1
	}
	return float64(total) / float64(maxFinish)
}

// Stat summarizes a per-task metric.
type Stat struct {
	Mean float64
	P90  uint64
}

func statOf(vals []uint64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	var sum uint64
	for _, v := range vals {
		sum += v
	}
	sorted := append([]uint64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Stat{
		Mean: float64(sum) / float64(len(vals)),
		P90:  sorted[(len(sorted)*9)/10],
	}
}

// InstrStats returns instruction-count statistics (Table 1 "Instrs").
func (p *Profile) InstrStats() Stat {
	v := make([]uint64, len(p.Tasks))
	for i, t := range p.Tasks {
		v[i] = t.Instrs
	}
	return statOf(v)
}

// ReadStats returns words-read statistics (Table 1 "Reads").
func (p *Profile) ReadStats() Stat {
	v := make([]uint64, len(p.Tasks))
	for i, t := range p.Tasks {
		v[i] = uint64(len(t.Reads))
	}
	return statOf(v)
}

// WriteStats returns words-written statistics (Table 1 "Writes").
func (p *Profile) WriteStats() Stat {
	v := make([]uint64, len(p.Tasks))
	for i, t := range p.Tasks {
		v[i] = uint64(len(t.Writes))
	}
	return statOf(v)
}
