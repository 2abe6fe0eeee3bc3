package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/swarm-sim/swarm/internal/guest"
)

// Property tests for the commit protocol: randomized task DAGs executed on
// small, contended machines, asserting the three properties the protocol
// exists to provide —
//
//  1. no task commits before its parent (ordered commits, §4.6);
//  2. an abort squashes every speculative descendant and no discarded
//     incarnation ever commits (selective aborts, §4.5);
//  3. the final memory state equals a serial execution in timestamp order
//     (the correctness contract of ordered speculation as a whole).
//
// Each generated program is a forest of tasks with unique timestamps doing
// random conflicting reads/writes over a tiny shared array, so runs abort
// constantly and exercise rollback, cascades and the full-queue policies.

// propTask is one generated task: its unique timestamp, the shared-pool
// words it touches, and its children (indices into the program table).
type propTask struct {
	ts       uint64
	reads    []int
	writes   []int
	children []int
}

// propProgram is a generated forest over a shared word pool.
type propProgram struct {
	tasks []propTask
	roots []int
	words int
}

// genProgram builds a random forest of n tasks. Timestamps are unique
// (task i has timestamp i+1), children always have later timestamps than
// their parent, and fan-out respects the 8-child hardware limit.
func genProgram(rng *rand.Rand, n, words int) propProgram {
	p := propProgram{tasks: make([]propTask, n), words: words}
	for i := range p.tasks {
		t := &p.tasks[i]
		t.ts = uint64(i + 1)
		for r := rng.Intn(4); r > 0; r-- {
			t.reads = append(t.reads, rng.Intn(words))
		}
		for w := 1 + rng.Intn(2); w > 0; w-- {
			t.writes = append(t.writes, rng.Intn(words))
		}
	}
	// Parent links: task i attaches to a random earlier task with spare
	// child slots, or becomes a root (always a root for i == 0).
	for i := 1; i < n; i++ {
		if rng.Intn(4) == 0 {
			p.roots = append(p.roots, i)
			continue
		}
		parent := rng.Intn(i)
		if len(p.tasks[parent].children) >= 7 {
			p.roots = append(p.roots, i)
			continue
		}
		p.tasks[parent].children = append(p.tasks[parent].children, i)
	}
	p.roots = append(p.roots, 0)
	return p
}

// mix is the deterministic value a task writes: a function of the task id
// and everything it read, so any ordering violation corrupts memory in a
// way the serial oracle comparison catches.
func mix(id uint64, acc uint64) uint64 {
	x := id*0x9e3779b97f4a7c15 + acc
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x
}

// run executes one task body against any Env-like pair of load/store plus
// child-enqueue callbacks — shared by the guest body and the serial oracle
// so both execute identical work by construction.
func (p propProgram) run(id uint64, load func(uint64) uint64, store func(uint64, uint64), enq func(child int)) {
	t := p.tasks[id]
	acc := uint64(0)
	for _, r := range t.reads {
		acc += load(uint64(r) * 8)
	}
	for _, w := range t.writes {
		store(uint64(w)*8, mix(id, acc))
	}
	for _, c := range t.children {
		enq(c)
	}
}

// serialOracle executes the program in timestamp order on host memory:
// the specification Swarm's parallel execution must match.
func (p propProgram) serialOracle() map[uint64]uint64 {
	mem := map[uint64]uint64{}
	p.serialOracleInto(mem)
	return mem
}

// serialOracleInto executes the program in timestamp order over existing
// memory — the phase-2 specification when a batch is injected after
// quiescence.
func (p propProgram) serialOracleInto(mem map[uint64]uint64) {
	// Timestamps are the task ids + 1 and children always have larger ids,
	// so executing in id order IS timestamp order, and every task is
	// reachable exactly once (forest).
	for id := range p.tasks {
		p.run(uint64(id),
			func(a uint64) uint64 { return mem[a] },
			func(a, v uint64) { mem[a] = v },
			func(int) {})
	}
}

func (p propProgram) program(base *uint64) *Program {
	prog := &Program{}
	prog.Setup = func(m *Machine) {
		*base = m.SetupAlloc(uint64(p.words) * 8)
		body := func(e guest.TaskEnv) {
			id := e.Arg(0)
			e.Work(2)
			p.run(id,
				func(a uint64) uint64 { return e.Load(*base + a) },
				func(a, v uint64) { e.Store(*base+a, v) },
				func(c int) { e.EnqueueArgs(0, p.tasks[c].ts, [3]uint64{uint64(c)}) })
		}
		prog.Fns = []guest.TaskFn{body}
		for _, r := range p.roots {
			m.EnqueueRoot(0, p.tasks[r].ts, uint64(r))
		}
	}
	return prog
}

// propConfig is a deliberately tiny, contended machine: 2 tiles x 2 cores
// with small queues, so spills, NACKs and the §4.7 policies all fire.
func propConfig(seed int64) Config {
	cfg := DefaultConfig(4)
	cfg.Tiles, cfg.CoresPerTile = 2, 2
	cfg.TaskQPerCore = 8
	cfg.CommitQPerCore = 2
	cfg.SpillBatch = 4
	cfg.Seed = seed
	cfg.DebugChecks = true // commit-order assertions on every commit
	cfg.MaxCycles = 50_000_000
	return cfg
}

func TestCommitProtocolProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// 8 shared words across ~70 tasks: heavy conflict traffic.
			p := genProgram(rng, 50+rng.Intn(40), 8)

			// Tracking state, all keyed by task seq (unique per task
			// incarnation: re-enqueued conflict victims get a fresh seq, so
			// a discarded incarnation's seq can never be recycled into a
			// commit).
			committed := map[uint64]bool{}
			discarded := map[uint64]bool{}
			var cascadeErr, commitErr error

			debugCommitHook = func(m *Machine, tk *task) {
				// Property 1: a committing task's parent has already
				// committed (commitTask clears children's parent pointers,
				// so a live pointer means an uncommitted parent).
				if tk.parent != nil && commitErr == nil {
					commitErr = fmt.Errorf("task ts=%d committed before its parent ts=%d",
						tk.desc.TS, tk.parent.desc.TS)
				}
				committed[tk.seq] = true
			}
			aborted := map[uint64]bool{}
			debugAbortHook = func(m *Machine, victim *task, discard bool) {
				aborted[victim.seq] = true
				// Property 2: the cascade must reach every child. Children
				// in speculative states get their own abort (checked at the
				// end via the abort log); idle children are discarded
				// silently — either way their current incarnation must
				// never commit.
				for _, ch := range victim.children {
					discarded[ch.seq] = true
					if ch.state == taskCommitted && cascadeErr == nil {
						cascadeErr = fmt.Errorf("aborting ts=%d but child ts=%d already committed",
							victim.desc.TS, ch.desc.TS)
					}
				}
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
			if int(st.Commits) < len(p.tasks) {
				t.Fatalf("only %d commits for %d tasks", st.Commits, len(p.tasks))
			}
			// Property 2 (post-hoc): no incarnation marked for discard by a
			// parent abort ever committed.
			for seq := range discarded {
				if committed[seq] {
					t.Fatalf("discarded task incarnation (seq %d) committed", seq)
				}
			}
			// Property 3: final memory equals the serial oracle.
			want := p.serialOracle()
			for w := 0; w < p.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("word %d = %#x, want %#x (serial oracle)", w, got, want[uint64(w)*8])
				}
			}
			if st.Aborts == 0 && seed <= 5 {
				t.Logf("seed %d: no aborts — program may be too conflict-free to be interesting", seed)
			}
		})
	}
}

// TestCommitProtocolPhasedInjection extends the commit-protocol properties
// across quiescence: a first random forest runs to quiescence, a second
// batch of roots is injected into the same (warm) machine, and the second
// phase runs over memory the first one produced. The protocol properties
// must hold in every phase, and the final memory must equal the serial
// oracle of phase 1 followed by phase 2 — even though phase 2's
// timestamps restart below already-committed history.
func TestCommitProtocolPhasedInjection(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 1001))
			p1 := genProgram(rng, 40+rng.Intn(30), 8)
			p2 := genProgram(rng, 30+rng.Intn(30), 8)

			committed := map[uint64]bool{}
			discarded := map[uint64]bool{}
			var cascadeErr, commitErr error
			debugCommitHook = func(m *Machine, tk *task) {
				if tk.parent != nil && commitErr == nil {
					commitErr = fmt.Errorf("task ts=%d committed before its parent ts=%d",
						tk.desc.TS, tk.parent.desc.TS)
				}
				committed[tk.seq] = true
			}
			debugAbortHook = func(m *Machine, victim *task, discard bool) {
				for _, ch := range victim.children {
					discarded[ch.seq] = true
					if ch.state == taskCommitted && cascadeErr == nil {
						cascadeErr = fmt.Errorf("aborting ts=%d but child ts=%d already committed",
							victim.desc.TS, ch.desc.TS)
					}
				}
			}
			defer func() { debugCommitHook, debugAbortHook = nil, nil }()

			var base uint64
			prog := &Program{}
			prog.Setup = func(m *Machine) {
				base = m.SetupAlloc(8 * 8)
				body := func(p propProgram, self guest.FnID) guest.TaskFn {
					return func(e guest.TaskEnv) {
						id := e.Arg(0)
						e.Work(2)
						p.run(id,
							func(a uint64) uint64 { return e.Load(base + a) },
							func(a, v uint64) { e.Store(base+a, v) },
							func(c int) { e.EnqueueArgs(self, p.tasks[c].ts, [3]uint64{uint64(c)}) })
					}
				}
				prog.Fns = []guest.TaskFn{body(p1, 0), body(p2, 1)}
				for _, r := range p1.roots {
					m.EnqueueRoot(0, p1.tasks[r].ts, uint64(r))
				}
			}
			m, err := loadProgram(propConfig(seed), prog)
			if err != nil {
				t.Fatal(err)
			}
			ph1, err := m.RunPhase()
			if err != nil {
				t.Fatalf("phase 1: %v", err)
			}
			if int(ph1.Commits) < len(p1.tasks) {
				t.Fatalf("phase 1: only %d commits for %d tasks", ph1.Commits, len(p1.tasks))
			}
			// Mid-session check: phase 1's memory equals its serial oracle
			// before any phase-2 work is injected.
			want := p1.serialOracle()
			for w := 0; w < p1.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("phase 1 word %d = %#x, want %#x", w, got, want[uint64(w)*8])
				}
			}
			if m.QueuedTasks() != 0 {
				t.Fatalf("quiescent machine reports %d queued tasks", m.QueuedTasks())
			}

			// Inject the second forest: timestamps restart at 1, below the
			// committed history's virtual times.
			for _, r := range p2.roots {
				m.EnqueueRoot(1, p2.tasks[r].ts, uint64(r))
			}
			ph2, err := m.RunPhase()
			if err != nil {
				t.Fatalf("phase 2: %v", err)
			}
			if commitErr != nil {
				t.Fatal(commitErr)
			}
			if cascadeErr != nil {
				t.Fatal(cascadeErr)
			}
			if int(ph2.Commits) < len(p2.tasks) {
				t.Fatalf("phase 2: only %d commits for %d tasks", ph2.Commits, len(p2.tasks))
			}
			if ph2.StartCycle != ph1.EndCycle {
				t.Fatalf("phase 2 starts at %d, phase 1 ended at %d", ph2.StartCycle, ph1.EndCycle)
			}
			for seq := range discarded {
				if committed[seq] {
					t.Fatalf("discarded task incarnation (seq %d) committed", seq)
				}
			}
			// Final memory: phase 1 then phase 2, serially, in ts order.
			p2.serialOracleInto(want)
			for w := 0; w < p2.words; w++ {
				addr := base + uint64(w)*8
				if got := m.Mem().Load(addr); got != want[uint64(w)*8] {
					t.Fatalf("final word %d = %#x, want %#x (two-phase serial oracle)", w, got, want[uint64(w)*8])
				}
			}
		})
	}
}
