package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// Property tests for nested (fork-join) timestamps composed with the
// commit protocol: random fork trees executed on small, contended
// machines must commit in exact nested dag order — every parent before
// any of its forked descendants, every fork subtree before its next
// sibling — and produce the serial oracle's memory, with the spill and
// GVT machinery carrying non-empty paths throughout (DebugChecks asserts
// the commit-order invariant on every commit against idle, overflow,
// coalescer and spilled descriptors).

// nestedTask is one generated task: its slot, nested path, the shared
// words it touches, and its forked children (indices into the table).
type nestedTask struct {
	ts     uint64
	path   tsdom.Path
	reads  []int
	writes []int
	subs   []int
}

// nestedProgram is a generated forest of fork trees over a shared pool.
// tasks is in serial (slot, then nested pre-order) order: task i's forked
// children all have larger ids, and executing in id order IS the nested
// commit order.
type nestedProgram struct {
	tasks []nestedTask
	roots []int // one root per slot, paths all empty
	words int
}

// genNestedProgram builds slots fork trees. The first tree contains a
// guaranteed spine of depth minDepth, so every run exercises deep
// nesting; elsewhere fan-out and depth are random.
func genNestedProgram(rng *rand.Rand, slots, minDepth, maxDepth, words int) nestedProgram {
	p := nestedProgram{words: words}
	newTask := func(ts uint64, path tsdom.Path) int {
		t := nestedTask{ts: ts, path: path}
		for r := rng.Intn(4); r > 0; r-- {
			t.reads = append(t.reads, rng.Intn(words))
		}
		for w := 1 + rng.Intn(2); w > 0; w-- {
			t.writes = append(t.writes, rng.Intn(words))
		}
		p.tasks = append(p.tasks, t)
		return len(p.tasks) - 1
	}
	var grow func(id int, depth int, spine bool)
	grow = func(id int, depth int, spine bool) {
		if depth >= maxDepth {
			return
		}
		kids := rng.Intn(4)
		if spine && depth < minDepth && kids == 0 {
			kids = 1
		}
		for k := 0; k < kids; k++ {
			path := p.tasks[id].path.Child(uint64(k))
			c := newTask(p.tasks[id].ts, path)
			p.tasks[id].subs = append(p.tasks[id].subs, c)
			// The spine continues through the first child of the first
			// tree; everything else branches freely.
			grow(c, depth+1, spine && k == 0)
		}
	}
	for s := 0; s < slots; s++ {
		r := newTask(uint64(s), tsdom.Root)
		p.roots = append(p.roots, r)
		grow(r, 0, s == 0)
	}
	return p
}

// run executes one task body; shared by the guest body and the serial
// oracle so both do identical work by construction.
func (p nestedProgram) run(id uint64, load func(uint64) uint64, store func(uint64, uint64), fork func(child int)) {
	t := p.tasks[id]
	acc := uint64(0)
	for _, r := range t.reads {
		acc += load(uint64(r) * 8)
	}
	for _, w := range t.writes {
		store(uint64(w)*8, mix(id, acc))
	}
	for _, c := range t.subs {
		fork(c)
	}
}

// serialOracle executes the program in nested commit order (= id order).
func (p nestedProgram) serialOracle() map[uint64]uint64 {
	mem := map[uint64]uint64{}
	for id := range p.tasks {
		p.run(uint64(id),
			func(a uint64) uint64 { return mem[a] },
			func(a, v uint64) { mem[a] = v },
			func(int) {})
	}
	return mem
}

func (p nestedProgram) program(base *uint64) *Program {
	prog := &Program{}
	prog.Setup = func(m *Machine) {
		*base = m.SetupAlloc(uint64(p.words) * 8)
		body := func(e guest.TaskEnv) {
			id := e.Arg(0)
			e.Work(2)
			p.run(id,
				func(a uint64) uint64 { return e.Load(*base + a) },
				func(a, v uint64) { e.Store(*base+a, v) },
				func(c int) { e.EnqueueSub(0, guest.NoHint, [3]uint64{uint64(c)}) })
		}
		prog.Fns = []guest.TaskFn{body}
		for _, r := range p.roots {
			m.EnqueueRoot(0, p.tasks[r].ts, uint64(r))
		}
	}
	return prog
}

// maxNestedDepth returns the deepest fork path in the program.
func (p nestedProgram) maxNestedDepth() int {
	d := 0
	for _, t := range p.tasks {
		if n := t.path.Depth(); n > d {
			d = n
		}
	}
	return d
}

func TestNestedCommitProtocolProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7717))
			// Few slots, deep trees, 8 shared words: constant conflicts
			// between ancestors and their own (not-yet-committed)
			// speculative descendants.
			p := genNestedProgram(rng, 2+rng.Intn(3), 3, 5, 8)
			if d := p.maxNestedDepth(); d < 3 {
				t.Fatalf("generated max fork depth %d, want >= 3 (spine broken)", d)
			}

			// Commit log: every committed task's id, in commit order.
			var order []uint64
			var commitErr error
			debugCommitHook = func(m *Machine, tk *task) {
				// A committing task's parent must already have committed
				// (commitTask clears children's parent pointers).
				if tk.parent != nil && commitErr == nil {
					commitErr = fmt.Errorf("task ts=%d path=%s committed before its parent ts=%d path=%s",
						tk.desc.TS, tk.desc.Path, tk.parent.desc.TS, tk.parent.desc.Path)
				}
				if tk.kind == kindWorker {
					order = append(order, tk.desc.Args[0])
				}
			}
			discarded := map[uint64]bool{}
			committedSeq := map[uint64]bool{}
			var cascadeErr error
			debugAbortHook = func(m *Machine, victim *task, discard bool) {
				for _, ch := range victim.children {
					discarded[ch.seq] = true
					if ch.state == taskCommitted && cascadeErr == nil {
						cascadeErr = fmt.Errorf("aborting ts=%d path=%s but child ts=%d path=%s already committed",
							victim.desc.TS, victim.desc.Path, ch.desc.TS, ch.desc.Path)
					}
				}
			}
			prevHook := debugCommitHook
			debugCommitHook = func(m *Machine, tk *task) {
				prevHook(m, tk)
				committedSeq[tk.seq] = true
			}
			defer func() { debugCommitHook, debugAbortHook = nil, nil }()

			var base uint64
			m, err := loadProgram(propConfig(seed), p.program(&base))
			if err != nil {
				t.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			if cascadeErr != nil {
				t.Fatal(cascadeErr)
			}
			for seq := range discarded {
				if committedSeq[seq] {
					t.Fatalf("discarded task incarnation (seq %d) committed", seq)
				}
			}
			// The committed-id sequence must BE the nested pre-order:
			// parents before descendants, subtree before next sibling, in
			// every slot. Ids were generated in that order, so the log
			// must read 0, 1, 2, ...
			if len(order) != len(p.tasks) {
				t.Fatalf("%d commits for %d tasks", len(order), len(p.tasks))
			}
			for i, id := range order {
				if id != uint64(i) {
					a, b := p.tasks[i], p.tasks[id]
					t.Fatalf("commit %d was task %d (ts=%d path=%s), want task %d (ts=%d path=%s) — nested order violated",
						i, id, b.ts, b.path, i, a.ts, a.path)
				}
			}
			// Final memory equals the nested serial oracle.
			want := p.serialOracle()
			for w := 0; w < p.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("word %d = %#x, want %#x (nested serial oracle)", w, got, want[uint64(w)*8])
				}
			}
			_ = st
		})
	}
}

// TestNestedSpillBounds pins the satellite regression: task descriptors
// with non-empty nested paths flowing through the spill path (coalescer
// victim selection, splitter batch-minimum bounds, overflow heaps) and
// the GVT bound computation. Forked children hold live parent pointers
// and cannot spill, so the test instead seeds ~10x the 2x2 machine's
// queue capacity of parentless, single-slot descriptors with distinct
// random paths (in scrambled insertion order): every movable descriptor
// is path-bearing, coalescers must fire, and DebugChecks'
// assertCommitOrder validates every commit against the spilled and
// overflowed bounds — a path dropped anywhere in the spill or GVT
// plumbing panics the run or breaks the commit-order log.
func TestNestedSpillBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, words = 160, 8
	// Distinct random paths, all in slot 0, so the path alone decides
	// the total order.
	paths := make([]tsdom.Path, 0, n)
	seen := map[tsdom.Path]bool{}
	for len(paths) < n {
		p := tsdom.Root
		for d := 1 + rng.Intn(4); d > 0; d-- {
			p = p.Child(uint64(rng.Intn(4)))
		}
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	prog := nestedProgram{words: words}
	for _, p := range paths {
		t := nestedTask{ts: 0, path: p}
		for r := rng.Intn(4); r > 0; r-- {
			t.reads = append(t.reads, rng.Intn(words))
		}
		for w := 1 + rng.Intn(2); w > 0; w-- {
			t.writes = append(t.writes, rng.Intn(words))
		}
		prog.tasks = append(prog.tasks, t)
	}
	// Serial-oracle order is id order, so sort the table into dag order
	// and scramble only the enqueue order below.
	sort.Slice(prog.tasks, func(i, j int) bool {
		return tsdom.Less(prog.tasks[i].path, prog.tasks[j].path)
	})
	enqOrder := rng.Perm(n)

	var order []uint64
	debugCommitHook = func(m *Machine, tk *task) {
		if tk.kind == kindWorker {
			order = append(order, tk.desc.Args[0])
		}
	}
	defer func() { debugCommitHook = nil }()

	var base uint64
	p := &Program{}
	p.Setup = func(m *Machine) {
		base = m.SetupAlloc(words * 8)
		body := func(e guest.TaskEnv) {
			id := e.Arg(0)
			e.Work(2)
			prog.run(id,
				func(a uint64) uint64 { return e.Load(base + a) },
				func(a, v uint64) { e.Store(base+a, v) },
				func(int) {})
		}
		p.Fns = []guest.TaskFn{body}
		for _, id := range enqOrder {
			m.EnqueueRootDesc(guest.TaskDesc{Fn: 0, TS: 0, Path: prog.tasks[id].path, Args: [3]uint64{uint64(id)}})
		}
	}
	m, err := loadProgram(propConfig(42), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Commits) < n {
		t.Fatalf("only %d commits for %d tasks", st.Commits, n)
	}
	if st.SpilledTasks == 0 {
		t.Fatalf("no descriptors spilled — %d parentless tasks no longer pressure the 2x2 queues and the regression is untested", n)
	}
	// Commits must follow the dag order of the paths regardless of the
	// scrambled insertion and the spill round-trips.
	if len(order) != n {
		t.Fatalf("%d commits logged for %d tasks", len(order), n)
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("commit %d was task %d (path %s), want task %d (path %s) — spilled descriptors broke the nested order",
				i, id, prog.tasks[id].path, i, prog.tasks[i].path)
		}
	}
	want := prog.serialOracle()
	for w := 0; w < words; w++ {
		addr := base + uint64(w)*8
		if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
			t.Fatalf("word %d = %#x, want %#x (nested serial oracle)", w, got, want[uint64(w)*8])
		}
	}
}

// TestDescCompare pins the descriptor-level (timestamp, path) order used
// by spill victim selection, splitter refills and overflow drains.
func TestDescCompare(t *testing.T) {
	d := func(ts uint64, path tsdom.Path) guest.TaskDesc {
		return guest.TaskDesc{TS: ts, Path: path}
	}
	p0 := tsdom.Root.Child(0)
	p1 := tsdom.Root.Child(1)
	p00 := p0.Child(0)
	cases := []struct {
		name string
		a, b guest.TaskDesc
		want int
	}{
		{"ts-wins", d(1, p1), d(2, tsdom.Root), -1},
		{"flat-equal", d(3, tsdom.Root), d(3, tsdom.Root), 0},
		{"root-before-fork", d(3, tsdom.Root), d(3, p0), -1},
		{"parent-before-child", d(3, p0), d(3, p00), -1},
		{"subtree-before-sibling", d(3, p00), d(3, p1), -1},
		{"pathed-equal", d(3, p00), d(3, p00), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Compare(tc.b); got != tc.want {
				t.Fatalf("Compare = %d, want %d", got, tc.want)
			}
			if got := tc.b.Compare(tc.a); got != -tc.want {
				t.Fatalf("Compare reversed = %d, want %d", got, -tc.want)
			}
		})
	}
}

// TestRescueOverflowGate unit-tests the liveness backstop's gating: an
// empty overflow is a no-op, resident work at or before the overflow
// head suppresses the rescue (normal freeSlot drains suffice), and a
// head that precedes everything resident is re-materialized.
func TestRescueOverflowGate(t *testing.T) {
	m, err := NewMachine(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ft := &guest.FnTable{}
	ft.Fn("nop", func(guest.TaskEnv) {})
	m.SetProgram(ft)
	tt := m.tiles[0]

	m.rescueOverflow(tt) // empty overflow: nothing to do
	if len(tt.overflow) != 0 || tt.idleQ.Len() != 0 {
		t.Fatal("rescue on an empty tile changed state")
	}

	tt.overflow = append(tt.overflow, guest.TaskDesc{Fn: 0, TS: 5})
	m.insertIdle(tt, m.newTask(guest.TaskDesc{Fn: 0, TS: 3}, tt.id, nil))
	m.rescueOverflow(tt)
	if len(tt.overflow) != 1 {
		t.Fatal("rescue drained past resident earlier work")
	}

	tt.overflow[0] = guest.TaskDesc{Fn: 0, TS: 1}
	m.rescueOverflow(tt)
	if len(tt.overflow) != 0 {
		t.Fatal("rescue left a globally-earliest head in overflow")
	}
	if tt.idleQ.Len() != 2 {
		t.Fatalf("idleQ holds %d tasks after rescue, want 2", tt.idleQ.Len())
	}
}
