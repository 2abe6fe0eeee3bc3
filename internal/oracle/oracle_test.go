package oracle

import (
	"testing"

	"github.com/swarm-sim/swarm/internal/bench"
	"github.com/swarm-sim/swarm/internal/core"
	"github.com/swarm-sim/swarm/internal/guest"
)

// TestChainIsSerial: a pure dependence chain has parallelism 1.
func TestChainIsSerial(t *testing.T) {
	build := func(b *guest.AppBuild) []guest.TaskDesc {
		base := b.Alloc(8)
		var fn guest.FnID
		fn = b.Fn("chain", func(e guest.TaskEnv) {
			v := e.Load(base)
			e.Work(9)
			e.Store(base, v+1)
			if e.Timestamp() < 20 {
				e.Enqueue(fn, e.Timestamp()+1)
			}
		})
		return []guest.TaskDesc{{Fn: fn, TS: 0}}
	}
	p := ProfileTasks(build, 0)
	if len(p.Tasks) != 21 {
		t.Fatalf("tasks = %d", len(p.Tasks))
	}
	if par := p.MaxParallelism(); par > 1.01 {
		t.Fatalf("chain parallelism = %.2f, want 1", par)
	}
}

// TestIndependentTasksAreParallel: disjoint tasks have parallelism ~N.
func TestIndependentTasksAreParallel(t *testing.T) {
	const n = 50
	build := func(b *guest.AppBuild) []guest.TaskDesc {
		base := b.Alloc(8 * n)
		fn := b.Fn("indep", func(e guest.TaskEnv) {
			i := e.Arg(0)
			e.Work(20)
			e.Store(base+i*8, i)
		})
		var roots []guest.TaskDesc
		for i := uint64(0); i < n; i++ {
			roots = append(roots, guest.TaskDesc{Fn: fn, TS: i, Args: [3]uint64{i}})
		}
		return roots
	}
	p := ProfileTasks(build, 0)
	if par := p.MaxParallelism(); par < n-1 {
		t.Fatalf("independent parallelism = %.2f, want ~%d", par, n)
	}
	// A window of 4 caps parallelism near 4.
	if par := p.WindowParallelism(4); par > 5 {
		t.Fatalf("window-4 parallelism = %.2f, want <= ~4", par)
	}
}

// TestWindowMonotonic: parallelism grows (weakly) with window size.
func TestWindowMonotonic(t *testing.T) {
	b := bench.NewSSSP(20, 20, 3)
	p := ProfileTasks(b.SwarmApp().Build, 0)
	unb := p.MaxParallelism()
	w1024 := p.WindowParallelism(1024)
	w64 := p.WindowParallelism(64)
	if !(w64 <= w1024+0.01 && w1024 <= unb+0.01) {
		t.Fatalf("window parallelism not monotone: inf=%.1f 1024=%.1f 64=%.1f", unb, w1024, w64)
	}
	if unb < 5 {
		t.Fatalf("sssp max parallelism %.1f suspiciously low", unb)
	}
}

// TestTable1Shape checks the qualitative Table 1 relations on scaled-down
// inputs: plentiful task parallelism, tiny TLS parallelism for
// priority-queue applications, large TLS parallelism for msf (whose loop
// order matches task order), and sensible task-size orderings.
func TestTable1Shape(t *testing.T) {
	sssp := bench.NewSSSP(24, 24, 3)
	msf := bench.NewMSF(8, 8, 3)
	silo := bench.NewSilo(2, 80, 5)

	pSSSP := ProfileTasks(sssp.SwarmApp().Build, 0)
	pMSF := ProfileTasks(msf.SwarmApp().Build, 0)
	pSilo := ProfileTasks(silo.SwarmApp().Build, 0)

	tlsSSSP := ProfileSerial(sssp.SerialApp().Build, 0).MaxParallelism()
	tlsMSF := ProfileSerial(msf.SerialApp().Build, 0).MaxParallelism()

	maxSSSP := pSSSP.MaxParallelism()
	maxMSF := pMSF.MaxParallelism()

	t.Logf("sssp: max=%.0fx tls=%.2fx instr=%.0f", maxSSSP, tlsSSSP, pSSSP.InstrStats().Mean)
	t.Logf("msf:  max=%.0fx tls=%.2fx", maxMSF, tlsMSF)
	t.Logf("silo: max=%.0fx instr=%.0f", pSilo.MaxParallelism(), pSilo.InstrStats().Mean)

	// Insight 1: parallelism is plentiful.
	if maxSSSP < 10 {
		t.Errorf("sssp max parallelism %.1f too low", maxSSSP)
	}
	// §3: priority-queue false dependences strangle TLS (paper: 1.10x).
	if tlsSSSP > 3 {
		t.Errorf("sssp ideal-TLS parallelism %.2f: the priority queue should serialize it", tlsSSSP)
	}
	if tlsSSSP < 1 {
		t.Errorf("TLS parallelism below 1?")
	}
	// msf's loop order matches task order: TLS ~= max (paper: 158x both).
	if tlsMSF < maxMSF/3 {
		t.Errorf("msf TLS %.1f should approach its max %.1f", tlsMSF, maxMSF)
	}
	// Insight 2: task sizes. silo tasks are the largest.
	if pSilo.InstrStats().Mean < 2*pSSSP.InstrStats().Mean {
		t.Errorf("silo tasks should be much larger than sssp tasks")
	}
	// sssp writes are rare (visited path writes nothing).
	if ws := pSSSP.WriteStats(); ws.Mean > 1.5 {
		t.Errorf("sssp mean writes %.2f, want < 1.5 (paper: 0.41)", ws.Mean)
	}
}

// TestProfileSerialExcludesPrologue: the pre-first-mark work (msf's sort)
// must not appear in the iteration profile.
func TestProfileSerialExcludesPrologue(t *testing.T) {
	build := func(alloc func(uint64) uint64, store func(addr, val uint64)) func(guest.Env, func()) {
		scratch := alloc(800)
		return func(e guest.Env, mark func()) {
			for i := uint64(0); i < 100; i++ { // prologue: a serial chain
				e.Store(scratch, e.Load(scratch)+1)
			}
			for i := uint64(0); i < 10; i++ {
				mark()
				e.Work(5)
				e.Store(scratch+8+i*8, i) // independent iterations
			}
		}
	}
	p := ProfileSerial(build, 0)
	if len(p.Tasks) != 10 {
		t.Fatalf("iterations = %d, want 10", len(p.Tasks))
	}
	if par := p.MaxParallelism(); par < 9 {
		t.Fatalf("independent iterations parallelism %.1f; prologue leaked in?", par)
	}
}

// TestRejectsWhatMachinesReject: an enqueue the machines refuse — a 4th
// argument word through Enqueue or Fork, a child timestamp below the
// parent's through EnqueueArgs or EnqueueHinted, or a ninth child, even
// one the simulator's GVT task overflows to memory — makes ProfileTasks
// panic with the simulator's own message instead of profiling a program
// no backend can run.
func TestRejectsWhatMachinesReject(t *testing.T) {
	// parentAt10 builds a one-root program whose ts-10 task runs bad.
	parentAt10 := func(bad func(e guest.TaskEnv, fn guest.FnID)) BuildFn {
		return func(b *guest.AppBuild) []guest.TaskDesc {
			var leaf guest.FnID
			parent := b.Fn("parent", func(e guest.TaskEnv) { bad(e, leaf) })
			leaf = b.Fn("leaf", func(guest.TaskEnv) {})
			return []guest.TaskDesc{{Fn: parent, TS: 10}}
		}
	}
	cases := map[string]struct {
		cores int
		build BuildFn
	}{
		"enqueue-4-args": {1, parentAt10(func(e guest.TaskEnv, fn guest.FnID) { e.Enqueue(fn, 11, 1, 2, 3, 4) })},
		"fork-4-args":    {1, parentAt10(func(e guest.TaskEnv, fn guest.FnID) { e.Fork(fn, 1, 2, 3, 4) })},
		"args-early-ts":  {1, parentAt10(func(e guest.TaskEnv, fn guest.FnID) { e.EnqueueArgs(fn, 9, [3]uint64{}) })},
		"hinted-early-ts": {1, parentAt10(func(e guest.TaskEnv, fn guest.FnID) {
			e.EnqueueHinted(fn, 9, 0, [3]uint64{})
		})},
		"nine-children": {1, parentAt10(func(e guest.TaskEnv, fn guest.FnID) {
			for range guest.MaxChildren {
				e.Enqueue(fn, 11)
			}
			e.Fork(fn)
		})},
		// The GVT task's children overflow to memory while its tile queue
		// is full, so the limit must hold where they never become tasks:
		// a depth-4 eight-way fan-out keeps the 4-core tile's 256-entry
		// queue full of speculative tasks while the ts-0 task enqueues.
		"nine-overflowed-children": {4, func(b *guest.AppBuild) []guest.TaskDesc {
			var leaf, fan guest.FnID
			gvt := b.Fn("gvt", func(e guest.TaskEnv) {
				for range guest.MaxChildren + 1 {
					e.Work(100)
					e.Enqueue(leaf, 1)
				}
			})
			fan = b.Fn("fan", func(e guest.TaskEnv) {
				if depth := e.Arg(0); depth < 4 {
					for range guest.MaxChildren {
						e.Enqueue(fan, e.Timestamp()+1, depth+1)
					}
				}
			})
			leaf = b.Fn("leaf", func(guest.TaskEnv) {})
			return []guest.TaskDesc{{Fn: gvt, TS: 0}, {Fn: fan, TS: 10}}
		}},
	}
	for name, tc := range cases {
		simMsg := panicValue(func() {
			bk, err := bench.SwarmApp{Build: tc.build}.Backend(core.DefaultConfig(tc.cores))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bk.RunPhase()
		})
		if simMsg == nil {
			t.Fatalf("%s: the simulator accepted the enqueue", name)
		}
		if got := panicValue(func() { ProfileTasks(tc.build, 0) }); got != simMsg {
			t.Errorf("%s: oracle panic = %v, want the simulator's %v", name, got, simMsg)
		}
	}
}

// panicValue runs f and returns what it panicked with, or nil.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
