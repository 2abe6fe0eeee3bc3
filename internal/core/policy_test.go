package core

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/bloom"
	"github.com/swarm-sim/swarm/internal/cache"
	"github.com/swarm-sim/swarm/internal/guest"
)

// tinyConfig builds a stress configuration with very small queues.
func tinyConfig(tiles, cpt, tq, cq int) Config {
	cfg := Config{
		Tiles: tiles, CoresPerTile: cpt,
		TaskQPerCore: tq, CommitQPerCore: cq,
		GVTPeriod:   100,
		SpillBatch:  4,
		Bloom:       bloom.Default(),
		Seed:        1,
		MaxCycles:   200_000_000,
		DebugChecks: true,
	}
	cfg.Cache = cache.DefaultParams(tiles, cpt)
	return cfg
}

// TestCommitQueueFullPolicy: with one commit queue entry per core, later
// finished tasks must be aborted or stalled so earlier tasks can finish;
// results must stay correct and the §4.7 policies must actually fire.
func TestCommitQueueFullPolicy(t *testing.T) {
	cfg := tinyConfig(1, 2, 16, 1) // 2 CQ entries per tile
	cfg.GVTPeriod = 400            // slow commits: CQ pressure
	var sum uint64
	const n = 40
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				// Varying lengths so finish order differs from ts order.
				e.Work((e.Arg(0) % 7) * 40)
				e.Store(sum+e.Arg(0)*8, e.Timestamp()+1)
			},
		},
		Setup: func(m *Machine) {
			sum = m.SetupAlloc(8 * n)
			for i := uint64(0); i < n; i++ {
				m.EnqueueRoot(0, i, i)
			}
		},
	}
	st, m := runProgram(t, cfg, prog)
	for i := uint64(0); i < n; i++ {
		if got := m.Mem().Load(sum + i*8); got != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, got, i+1)
		}
	}
	if st.Commits != n {
		t.Fatalf("commits = %d", st.Commits)
	}
	t.Logf("policy aborts: %d, total aborts: %d", st.PolicyAborts, st.Aborts)
}

// TestNACKAndSpills: a spawner burst against tiny task queues must trigger
// NACKs, GVT-task overflow, and coalescer/splitter spills — and still
// produce correct results.
func TestNACKAndSpills(t *testing.T) {
	cfg := tinyConfig(2, 2, 8, 2) // 16 TQ entries per tile
	var out uint64
	const n = 300
	prog := &Program{
		Fns: []guest.TaskFn{
			// Spawner tree over [lo, hi).
			func(e guest.TaskEnv) {
				lo, hi := e.Arg(0), e.Arg(1)
				if hi-lo <= 7 {
					for i := lo; i < hi; i++ {
						e.Enqueue(1, 1+i, i)
					}
					return
				}
				chunk := (hi - lo + 7) / 8
				for s := lo; s < hi; s += chunk {
					end := s + chunk
					if end > hi {
						end = hi
					}
					e.Enqueue(0, e.Timestamp(), s, end)
				}
			},
			func(e guest.TaskEnv) {
				e.Store(out+e.Arg(0)*8, e.Timestamp())
			},
		},
		Setup: func(m *Machine) {
			out = m.SetupAlloc(8 * n)
			m.EnqueueRoot(0, 0, 0, n)
		},
	}
	st, m := runProgram(t, cfg, prog)
	for i := uint64(0); i < n; i++ {
		if got := m.Mem().Load(out + i*8); got != 1+i {
			t.Fatalf("out[%d] = %d", i, got)
		}
	}
	if st.SpilledTasks == 0 {
		t.Error("expected spills with a 300-task burst into 32 total entries")
	}
	t.Logf("nacks=%d spilled=%d commits=%d", st.NACKs, st.SpilledTasks, st.Commits)
}

// TestUnboundedQueuesNoSpills: Table 5's idealization must remove all
// queue-pressure mechanisms.
func TestUnboundedQueuesNoSpills(t *testing.T) {
	cfg := tinyConfig(2, 2, 8, 2)
	cfg.UnboundedQueues = true
	var out uint64
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				lo, hi := e.Arg(0), e.Arg(1)
				if hi-lo <= 7 {
					for i := lo; i < hi; i++ {
						e.Enqueue(1, 1+i, i)
					}
					return
				}
				chunk := (hi - lo + 7) / 8
				for s := lo; s < hi; s += chunk {
					end := s + chunk
					if end > hi {
						end = hi
					}
					e.Enqueue(0, e.Timestamp(), s, end)
				}
			},
			func(e guest.TaskEnv) { e.Store(out+e.Arg(0)*8, 1) },
		},
		Setup: func(m *Machine) {
			out = m.SetupAlloc(8 * 300)
			m.EnqueueRoot(0, 0, 0, 300)
		},
	}
	st, _ := runProgram(t, cfg, prog)
	if st.SpilledTasks != 0 || st.NACKs != 0 {
		t.Fatalf("idealized queues spilled (%d) or NACKed (%d)", st.SpilledTasks, st.NACKs)
	}
}

// TestSelectiveAbortCascade builds the Fig 10 scenario: an abort must
// propagate through data dependences (B read A's write; C read B's write)
// but spare independent tasks.
func TestSelectiveAbortCascade(t *testing.T) {
	var x, y, z, other uint64
	cfg := DefaultConfig(4)
	cfg.Bloom = bloom.Config{Precise: true}
	prog := &Program{
		Fns: []guest.TaskFn{
			// A(ts=1): long think, then write X (forcing B, C to have
			// speculated on stale data).
			func(e guest.TaskEnv) {
				e.Work(4000)
				e.Store(x, 10)
			},
			// B(ts=2): read X, write Y.
			func(e guest.TaskEnv) {
				v := e.Load(x)
				e.Work(10)
				e.Store(y, v+1)
			},
			// C(ts=3): read Y, write Z.
			func(e guest.TaskEnv) {
				v := e.Load(y)
				e.Work(10)
				e.Store(z, v+1)
			},
			// D(ts=4): independent.
			func(e guest.TaskEnv) {
				e.Work(10)
				e.Store(other, 99)
			},
		},
		Setup: func(m *Machine) {
			x = m.SetupAlloc(64)
			y = m.SetupAlloc(64)
			z = m.SetupAlloc(64)
			other = m.SetupAlloc(64)
			m.EnqueueRoot(0, 1)
			m.EnqueueRoot(1, 2)
			m.EnqueueRoot(2, 3)
			m.EnqueueRoot(3, 4)
		},
	}
	st, m := runProgram(t, cfg, prog)
	if got := m.Mem().Load(z); got != 12 {
		t.Fatalf("z = %d, want 12 (A=10 -> B=11 -> C=12)", got)
	}
	if m.Mem().Load(other) != 99 {
		t.Fatal("independent task lost its write")
	}
	// The cascade must abort B and C (possibly again during re-execution
	// races), but never sweep the whole window: selective aborts keep the
	// count near the dependence chain's length.
	if st.Aborts < 2 || st.Aborts > 6 {
		t.Fatalf("aborts = %d, want the B-C cascade (2..6)", st.Aborts)
	}
}

// TestChildDiscardOnParentAbort: children of an aborted parent are removed
// and recreated, not re-run stale.
func TestChildDiscardOnParentAbort(t *testing.T) {
	var x, log, logLen uint64
	cfg := DefaultConfig(4)
	cfg.Bloom = bloom.Config{Precise: true}
	prog := &Program{
		Fns: []guest.TaskFn{
			// A(ts=1): delay, write X.
			func(e guest.TaskEnv) {
				e.Work(3000)
				e.Store(x, 5)
			},
			// B(ts=2): read X, spawn child carrying the read value.
			func(e guest.TaskEnv) {
				v := e.Load(x)
				e.Work(10)
				e.Enqueue(2, e.Timestamp()+1, v)
			},
			// child(ts=3): log its argument.
			func(e guest.TaskEnv) {
				n := e.Load(logLen)
				e.Store(logLen, n+1)
				e.Store(log+n*8, e.Arg(0))
			},
		},
		Setup: func(m *Machine) {
			x = m.SetupAlloc(64)
			log = m.SetupAlloc(64 * 8)
			logLen = m.SetupAlloc(64)
			m.EnqueueRoot(0, 1)
			m.EnqueueRoot(1, 2)
		},
	}
	_, m := runProgram(t, cfg, prog)
	if got := m.Mem().Load(logLen); got != 1 {
		t.Fatalf("child ran %d times' worth of logs, want exactly 1 entry", got)
	}
	if got := m.Mem().Load(log); got != 5 {
		t.Fatalf("child saw %d, want A's value 5 (stale child must be discarded)", got)
	}
}

// TestZeroLatencyIsFaster: the Table 5 memory idealization must not slow
// anything down.
func TestZeroLatencyIsFaster(t *testing.T) {
	build := func() *Program {
		var base uint64
		return &Program{
			Fns: []guest.TaskFn{
				func(e guest.TaskEnv) {
					a := e.Arg(0)
					e.Store(base+a*8, e.Load(base+a*8)+1)
				},
			},
			Setup: func(m *Machine) {
				base = m.SetupAlloc(8 * 512)
				for i := uint64(0); i < 128; i++ {
					m.EnqueueRoot(0, i, i*4)
				}
			},
		}
	}
	cfg := DefaultConfig(8)
	st1, _ := runProgram(t, cfg, build())
	cfgZ := DefaultConfig(8)
	cfgZ.Cache.ZeroLatency = true
	st2, _ := runProgram(t, cfgZ, build())
	if st2.Cycles > st1.Cycles {
		t.Fatalf("zero-latency run slower: %d > %d", st2.Cycles, st1.Cycles)
	}
}

// TestTraceAccounting: trace samples must cover the run and their
// breakdowns must account all core time.
func TestTraceAccounting(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.TraceInterval = 200
	var base uint64
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				e.Work(50)
				e.Store(base+e.Arg(0)*8, 1)
			},
		},
		Setup: func(m *Machine) {
			base = m.SetupAlloc(8 * 256)
			for i := uint64(0); i < 256; i++ {
				m.EnqueueRoot(0, i, i)
			}
		},
	}
	st, _ := runProgram(t, cfg, prog)
	if len(st.Trace) == 0 {
		t.Fatal("no trace samples")
	}
	for _, s := range st.Trace {
		for ti, tile := range s.Tiles {
			if tile.TaskQ < 0 || tile.CommitQ < 0 {
				t.Fatalf("negative queue length at cycle %d tile %d", s.Cycle, ti)
			}
		}
	}
}

// TestGVTPeriodCommitLatency: less frequent GVT updates leave more tasks
// waiting in commit queues (§4.6: "less frequent updates reduce bandwidth
// but increase commit queue occupancy").
func TestGVTPeriodCommitLatency(t *testing.T) {
	build := func() *Program {
		var base uint64
		return &Program{
			Fns: []guest.TaskFn{
				func(e guest.TaskEnv) {
					e.Work(20)
					e.Store(base+e.Arg(0)*8, 1)
				},
			},
			Setup: func(m *Machine) {
				base = m.SetupAlloc(8 * 1024)
				for i := uint64(0); i < 1024; i++ {
					m.EnqueueRoot(0, i, i)
				}
			},
		}
	}
	fast := DefaultConfig(8)
	fast.GVTPeriod = 50
	stFast, _ := runProgram(t, fast, build())
	slow := DefaultConfig(8)
	slow.GVTPeriod = 800
	stSlow, _ := runProgram(t, slow, build())
	if stSlow.AvgCommitQueueOcc < stFast.AvgCommitQueueOcc {
		t.Fatalf("slow GVT (%.1f avg CQ) should hold more than fast GVT (%.1f)",
			stSlow.AvgCommitQueueOcc, stFast.AvgCommitQueueOcc)
	}
}

// TestTaskAwareFree: memory freed by a speculative task must not be
// recycled until the task commits — and must never be recycled if it
// aborts.
func TestTaskAwareFree(t *testing.T) {
	var slot uint64
	prog := &Program{
		Fns: []guest.TaskFn{
			func(e guest.TaskEnv) {
				a := e.Alloc(64)
				e.Store(a, e.Timestamp())
				e.Free(a, 64)
				// A fresh allocation inside the same task must not alias
				// the just-freed block (it has not committed yet).
				b := e.Alloc(64)
				if a == b {
					panic("task-aware allocator recycled uncommitted free")
				}
				e.Store(slot, b)
			},
		},
		Setup: func(m *Machine) {
			slot = m.SetupAlloc(8)
			m.EnqueueRoot(0, 1)
		},
	}
	runProgram(t, DefaultConfig(4), prog)
}
