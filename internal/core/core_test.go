package core

import (
	"container/heap"
	"testing"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
	"github.com/swarm-sim/swarm/internal/tsdom"
)

// runProgram builds and runs a machine, failing the test on error.
func runProgram(t *testing.T, cfg Config, prog *Program) (Stats, *Machine) {
	t.Helper()
	m, err := loadProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

func TestSingleTask(t *testing.T) {
	var addr uint64
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				e.Store(addr, e.Timestamp()+e.Arg(0))
			},
		},
		Setup: func(m *Machine) {
			addr = m.SetupAlloc(8)
			m.EnqueueRoot(0, 7, 35)
		},
	}
	st, m := runProgram(t, DefaultConfig(4), prog)
	if got := m.Mem().Load(addr); got != 42 {
		t.Fatalf("memory = %d, want 42", got)
	}
	if st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d", st.Commits, st.Aborts)
	}
	if st.Cycles == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestParentChildChain(t *testing.T) {
	// Each task appends its timestamp to a log array; ordering must be
	// exactly timestamp order even though children land on random tiles.
	var logBase, idxAddr uint64
	const depth = 30
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				i := e.Load(idxAddr)
				e.Store(idxAddr, i+1)
				e.Store(logBase+i*8, e.Timestamp())
				if e.Timestamp() < depth {
					e.Enqueue(0, e.Timestamp()+1)
				}
			},
		},
		Setup: func(m *Machine) {
			idxAddr = m.SetupAlloc(8)
			logBase = m.SetupAlloc(8 * (depth + 1))
			m.EnqueueRoot(0, 1)
		},
	}
	st, m := runProgram(t, DefaultConfig(8), prog)
	if st.Commits != depth {
		t.Fatalf("commits = %d, want %d", st.Commits, depth)
	}
	for i := uint64(0); i < depth; i++ {
		if got := m.Mem().Load(logBase + i*8); got != i+1 {
			t.Fatalf("log[%d] = %d, want %d", i, got, i+1)
		}
	}
}

// TestConflictingIncrements forces every task through the same cache line:
// speculation must still yield a correct total.
func TestConflictingIncrements(t *testing.T) {
	var counter uint64
	const n = 200
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				e.Store(counter, e.Load(counter)+1)
			},
		},
		Setup: func(m *Machine) {
			counter = m.SetupAlloc(8)
			for i := 0; i < n; i++ {
				m.EnqueueRoot(0, uint64(i))
			}
		},
	}
	st, m := runProgram(t, DefaultConfig(16), prog)
	if got := m.Mem().Load(counter); got != n {
		t.Fatalf("counter = %d, want %d (aborts=%d)", got, n, st.Aborts)
	}
	if st.Commits != n {
		t.Fatalf("commits = %d, want %d", st.Commits, n)
	}
}

// TestSelectiveAbort reproduces the §4.4 forwarding scenario: B reads X
// before earlier task A writes it, so B must abort and re-execute; an
// independent task C must not abort (selective, not window-wide).
func TestSelectiveAbort(t *testing.T) {
	var x, out, other uint64
	cfg := DefaultConfig(4)
	cfg.Bloom = bloom.Config{Precise: true} // no false-positive aborts
	prog := &Program{
		Fns: []guest.TaskFn{
			// fn 0 = A(ts=1): long think, then write X.
			func(e guest.TaskEnv) {
				e.Work(3000)
				e.Store(x, 111)
			},
			// fn 1 = B(ts=2): read X immediately, record it.
			func(e guest.TaskEnv) {
				v := e.Load(x)
				e.Work(10)
				e.Store(out, v)
			},
			// fn 2 = C(ts=3): independent.
			func(e guest.TaskEnv) {
				e.Store(other, 7)
			},
		},
		Setup: func(m *Machine) {
			x = m.SetupAlloc(8)
			out = m.SetupAlloc(8)
			other = m.SetupAlloc(8)
			m.EnqueueRoot(0, 1)
			m.EnqueueRoot(1, 2)
			m.EnqueueRoot(2, 3)
		},
	}
	st, m := runProgram(t, cfg, prog)
	if got := m.Mem().Load(out); got != 111 {
		t.Fatalf("B recorded %d, want A's 111 (B must re-execute after A's write)", got)
	}
	if st.Aborts != 1 {
		t.Fatalf("aborts = %d, want exactly 1 (B only; C is independent)", st.Aborts)
	}
	if m.Mem().Load(other) != 7 {
		t.Fatal("C's write lost")
	}
}

// TestForwarding: a later task reading an earlier speculative task's write
// must see the new value in place (eager versioning), with no abort.
func TestForwarding(t *testing.T) {
	var x, out uint64
	cfg := DefaultConfig(4)
	cfg.Bloom = bloom.Config{Precise: true}
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) { // A(ts=1): write immediately, then linger
				e.Store(x, 55)
				e.Work(5000)
			},
			func(e guest.TaskEnv) { // B(ts=2): delay, then read X
				e.Work(500)
				e.Store(out, e.Load(x))
			},
		},
		Setup: func(m *Machine) {
			x = m.SetupAlloc(8)
			out = m.SetupAlloc(8)
			m.EnqueueRoot(0, 1)
			m.EnqueueRoot(1, 2)
		},
	}
	st, m := runProgram(t, cfg, prog)
	if got := m.Mem().Load(out); got != 55 {
		t.Fatalf("B read %d, want forwarded 55", got)
	}
	if st.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 (forwarding, not conflict)", st.Aborts)
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Program {
		var base uint64
		return &Program{
			Fns: []guest.TaskFn{
				func(e guest.TaskEnv) {
					a := e.Arg(0)
					e.Store(base+a*8, e.Load(base+a*8)+e.Timestamp())
					if e.Timestamp() < 40 {
						e.Enqueue(0, e.Timestamp()+3, (a+1)%16)
					}
				},
			},
			Setup: func(m *Machine) {
				base = m.SetupAlloc(16 * 8)
				for i := uint64(0); i < 8; i++ {
					m.EnqueueRoot(0, i, i)
				}
			},
		}
	}
	st1, _ := runProgram(t, DefaultConfig(8), build())
	st2, _ := runProgram(t, DefaultConfig(8), build())
	if st1.Cycles != st2.Cycles || st1.Commits != st2.Commits || st1.Aborts != st2.Aborts {
		t.Fatalf("nondeterministic: run1={cyc %d, c %d, a %d} run2={cyc %d, c %d, a %d}",
			st1.Cycles, st1.Commits, st1.Aborts, st2.Cycles, st2.Commits, st2.Aborts)
	}
}

func TestCostModelMatchesTable2(t *testing.T) {
	cfg := DefaultConfig(64)
	rows := cfg.CostModel()
	want := []struct {
		name   string
		sizeKB float64
		area   float64
	}{
		{"Task queue", 12.75, 0.056},
		{"Commit queue filters", 32, 0.304},
		{"Commit queue other", 2.25, 0.012},
		{"Order queue", 4, 0.175},
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name {
			t.Fatalf("row %d = %q, want %q", i, r.Name, w.name)
		}
		if r.SizeKB < w.sizeKB*0.99 || r.SizeKB > w.sizeKB*1.01 {
			t.Errorf("%s size = %.2fKB, want %.2fKB", r.Name, r.SizeKB, w.sizeKB)
		}
		// CACTI areas are not linear in capacity; our per-KB model lands
		// within ~25% of each paper row (and much closer in aggregate).
		if r.AreaMM2 < w.area*0.75 || r.AreaMM2 > w.area*1.25 {
			t.Errorf("%s area = %.3fmm2, want ~%.3fmm2", r.Name, r.AreaMM2, w.area)
		}
	}
	perTile, perChip := cfg.TotalAreaMM2()
	if perTile < 0.5 || perTile > 0.6 {
		t.Errorf("per-tile area = %.3f, want ~0.55 (paper: 0.55mm2)", perTile)
	}
	if perChip < 8 || perChip > 10 {
		t.Errorf("per-chip area = %.2f, want ~8.8 (paper: 8.8mm2)", perChip)
	}
}

// ---------------------------------------------------------------------------
// Golden property test: random timestamped task programs executed on the
// full Swarm machine — with adversarially tiny queues to force aborts,
// spills, NACKs and policy invocations — must produce exactly the memory
// state of a sequential timestamp-order execution.
// ---------------------------------------------------------------------------

// splitmix64 gives task bodies a deterministic, seed-dependent behaviour
// that is a pure function of (timestamp, arg, values read).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// chaosTask is the random program body. Timestamps are unique by
// construction (decimal path encoding), so sequential timestamp order is a
// total order and the reference execution is unambiguous.
func chaosTask(seed, pool uint64, poolWords int) guest.TaskFn {
	var fn guest.TaskFn
	fn = func(e guest.TaskEnv) {
		ts := e.Timestamp()
		depth := e.Arg(0)
		h := splitmix64(ts ^ seed)
		nOps := 1 + int(h%6)
		acc := ts
		for i := 0; i < nOps; i++ {
			h = splitmix64(h ^ acc)
			addr := pool + (h%uint64(poolWords))*8
			if h&1 == 0 {
				acc ^= e.Load(addr)
			} else {
				e.Store(addr, splitmix64(acc^h))
			}
		}
		// Spawn up to 3 children, data-dependently: speculation on wrong
		// values changes the task tree, which the reference must match.
		if depth < 3 {
			stride := uint64(1)
			for d := depth; d < 3; d++ {
				stride *= 10
			}
			nKids := int(splitmix64(acc) % 4)
			for k := 0; k < nKids; k++ {
				e.Enqueue(0, ts+uint64(k+1)*stride, depth+1)
			}
		}
	}
	return fn
}

// refHeap orders descriptors by (timestamp, nested path) for the
// reference executor.
type refHeap []guest.TaskDesc

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].TS != h[j].TS {
		return h[i].TS < h[j].TS
	}
	return tsdom.Less(h[i].Path, h[j].Path)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(guest.TaskDesc)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); d := old[n-1]; *h = old[:n-1]; return d }

// refEnv executes tasks sequentially against a map memory.
type refEnv struct {
	mem   map[uint64]uint64
	queue *refHeap
	desc  guest.TaskDesc
	brk   uint64
	tasks int
	forks uint64
}

func (r *refEnv) Load(a uint64) uint64  { return r.mem[a] }
func (r *refEnv) Store(a, v uint64)     { r.mem[a] = v }
func (r *refEnv) Work(uint64)           {}
func (r *refEnv) Alloc(n uint64) uint64 { a := r.brk; r.brk += (n + 7) &^ 7; return a }
func (r *refEnv) Free(uint64, uint64)   {}
func (r *refEnv) Timestamp() uint64     { return r.desc.TS }
func (r *refEnv) Arg(i int) uint64      { return r.desc.Args[i] }
func (r *refEnv) Enqueue(fn guest.FnID, ts uint64, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	r.EnqueueArgs(fn, ts, a)
}

func (r *refEnv) EnqueueArgs(fn guest.FnID, ts uint64, args [3]uint64) {
	heap.Push(r.queue, guest.TaskDesc{Fn: fn, TS: ts, Args: args})
}

func (r *refEnv) EnqueueHinted(fn guest.FnID, ts uint64, _ uint64, args [3]uint64) {
	r.EnqueueArgs(fn, ts, args) // the reference executor has no tiles
}

func (r *refEnv) Fork(fn guest.FnID, args ...uint64) {
	var a [3]uint64
	copy(a[:], args)
	r.EnqueueSub(fn, guest.NoHint, a)
}

func (r *refEnv) EnqueueSub(fn guest.FnID, _ uint64, args [3]uint64) {
	r.forks++
	heap.Push(r.queue, guest.TaskDesc{Fn: fn, TS: r.desc.TS, Path: r.desc.Path.Child(r.forks - 1), Args: args})
}

func runReference(fn guest.TaskFn, roots []guest.TaskDesc, brk uint64) (map[uint64]uint64, int) {
	r := &refEnv{mem: make(map[uint64]uint64), queue: &refHeap{}, brk: brk}
	for _, d := range roots {
		heap.Push(r.queue, d)
	}
	for r.queue.Len() > 0 {
		r.desc = heap.Pop(r.queue).(guest.TaskDesc)
		r.tasks++
		fn(r)
		if r.tasks > 1_000_000 {
			panic("reference execution runaway")
		}
	}
	return r.mem, r.tasks
}

func TestGoldenRandomPrograms(t *testing.T) {
	const poolWords = 48
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		// Tiny machine: 2 tiles x 2 cores, 8 task queue entries per core
		// (16/tile), 2 commit queue entries per core (4/tile), small spill
		// batches — everything is under pressure.
		cfg := Config{
			Tiles: 2, CoresPerTile: 2,
			TaskQPerCore: 8, CommitQPerCore: 2,
			GVTPeriod:  100,
			SpillBatch: 4,
			Bloom:      bloom.Default(),
			Seed:       int64(seed),
			MaxCycles:  500_000_000,
		}
		cfg.Cache = cache.DefaultParams(cfg.Tiles, cfg.CoresPerTile)

		var pool uint64
		var roots []guest.TaskDesc
		prog := &Program{
			// pool is captured by reference: Setup assigns it before any
			// task runs.
			Fns: []guest.TaskFn{func(e guest.TaskEnv) { chaosTask(seed, pool, poolWords)(e) }},
			Setup: func(m *Machine) {
				pool = m.SetupAlloc(poolWords * 8)
				roots = roots[:0]
				for i := uint64(0); i < 12; i++ {
					d := guest.TaskDesc{Fn: 0, TS: i * 10000, Args: [3]uint64{0}}
					roots = append(roots, d)
					m.EnqueueRoot(d.Fn, d.TS, d.Args[0])
				}
			},
		}

		m, err := loadProgram(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		refMem, refTasks := runReference(func(e guest.TaskEnv) {
			chaosTask(seed, pool, poolWords)(e)
		}, roots, pool)

		if int(st.Commits) != refTasks {
			t.Errorf("seed %d: commits = %d, reference ran %d tasks", seed, st.Commits, refTasks)
		}
		for a, v := range refMem {
			if got := m.Mem().Load(a); got != v {
				t.Fatalf("seed %d: mem[%#x] = %d, want %d (aborts=%d spills=%d nacks=%d)",
					seed, a, got, v, st.Aborts, st.SpilledTasks, st.NACKs)
			}
		}
		// Also verify no spurious extra writes inside the pool.
		for w := 0; w < poolWords; w++ {
			a := pool + uint64(w)*8
			if _, ok := refMem[a]; !ok && m.Mem().Load(a) != 0 {
				t.Fatalf("seed %d: spurious write at pool word %d", seed, w)
			}
		}
		if seed == 1 && testing.Verbose() {
			t.Logf("seed1: cycles=%d commits=%d aborts=%d spilled=%d nacks=%d policy=%d",
				st.Cycles, st.Commits, st.Aborts, st.SpilledTasks, st.NACKs, st.PolicyAborts)
		}
	}
}
